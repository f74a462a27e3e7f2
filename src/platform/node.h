// A complete SoC node: CPU + bus + memory + peripherals + secure-boot
// substrate + TEE, optionally extended with the paper's resilience
// stack (SSM + monitors + active response + recovery + degradation).
//
//   Config{.resilient = false}  -> the PASSIVE baseline of Section IV:
//       trust-based protection only; its sole response is watchdog
//       reboot, its telemetry is volatile and dies with a reboot.
//   Config{.resilient = true}   -> the paper's architecture (Section V).
//
// Components are public members: the Node is the experiment bench that
// scenarios and attack models wire into; hiding the parts behind
// accessors would only add boilerplate between the bench and the DUT.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "analysis/verifier.h"
#include "boot/measured.h"
#include "boot/secureboot.h"
#include "boot/update.h"
#include "core/monitor/bus_monitor.h"
#include "core/monitor/cfi_monitor.h"
#include "core/monitor/config_monitor.h"
#include "core/monitor/dift_monitor.h"
#include "core/monitor/environment_monitor.h"
#include "core/monitor/memory_monitor.h"
#include "core/monitor/network_monitor.h"
#include "core/monitor/peripheral_monitor.h"
#include "core/monitor/redundancy_monitor.h"
#include "core/monitor/timing_monitor.h"
#include "core/response/degradation.h"
#include "core/response/recovery.h"
#include "core/response/response.h"
#include "core/ssm/ssm.h"
#include "crypto/keystore.h"
#include "crypto/merkle.h"
#include "crypto/monotonic.h"
#include "dev/actuator.h"
#include "dev/dma.h"
#include "dev/nic.h"
#include "dev/power.h"
#include "dev/sensor.h"
#include "dev/timer.h"
#include "dev/trng.h"
#include "dev/uart.h"
#include "dev/watchdog.h"
#include "isa/assembler.h"
#include "isa/cpu.h"
#include "mem/bus.h"
#include "mem/ram.h"
#include "net/channel.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/siem.h"
#include "platform/analysis_cache.h"
#include "platform/firmware_store.h"
#include "platform/lockstep.h"
#include "platform/memmap.h"
#include "platform/translation_cache.h"
#include "sim/simulator.h"
#include "tee/tee.h"

namespace cres::platform {

struct NodeConfig {
    std::string name = "node0";
    std::uint64_t seed = 1;
    bool resilient = false;
    bool ssm_isolated = true;      ///< E9 ablation knob.
    bool lockstep = false;         ///< Shadow core + RedundancyMonitor.
    sim::Cycle ssm_poll_interval = 10;
    sim::Cycle reboot_downtime = 5000;  ///< Cycles a reboot costs.
    bool metrics = true;  ///< Bind the observability registry (false =
                          ///< compiled-in but unqueried: zero overhead).
    /// Maximum flight-recorder ring slots (black-box capacity). The
    /// ring grows by doubling as records arrive, so memory follows the
    /// records held. 0 disables the recorder entirely: nothing binds,
    /// producers pay one null check.
    std::size_t flight_recorder_capacity = 2048;
    /// SIEM staging-buffer slots (fleet export backpressure bound). The
    /// fleet drains it in device-index order; overflow between drains
    /// is counted as cres_siem_dropped_total. 0 disables staging.
    std::size_t siem_buffer_capacity = 256;
    std::string policy_dsl;        ///< Empty = default policy.
    double sensor_nominal = 50.0;  ///< Physical signal baseline.
    /// Static firmware analysis at boot/update admission. kDeny rejects
    /// images whose analysis finds policy violations; kWarn only
    /// reports; kOff skips analysis entirely.
    boot::AdmissionMode admission_mode = boot::AdmissionMode::kDeny;
    /// Pass policy for the admission verifier (segments, stack budget,
    /// banned opcodes).
    analysis::Policy admission_policy{};
    /// Superblock translation of admitted firmware (docs/EXECUTION.md).
    /// Purely a speed knob: architectural behaviour is identical with
    /// it off. Images the admission gate flagged (kWarn mode) and
    /// self-modifying code fall back to the interpreter automatically.
    bool translate = true;
    /// Shared firmware-keyed cache (the Fleet passes one per fleet so
    /// nodes measuring the same image share a translation). Null =
    /// build privately per node.
    std::shared_ptr<TranslationCache> translation_cache;
    /// Shared firmware-keyed analysis-report cache: the admission gate
    /// reuses a fleet-cached Report (findings + proof artifact) instead
    /// of re-running the abstract interpreter per node, and the
    /// translator consumes the cached ProofAnnotations. Null = analyze
    /// privately per node.
    std::shared_ptr<AnalysisCache> analysis_cache;
    /// Proof-carrying check elision (docs/EXECUTION.md): translated
    /// loads/stores proven in-bounds + aligned skip their per-access
    /// MPU/alignment checks. Purely a speed knob — lockstep-identical
    /// to checked execution by construction.
    bool elide_proven_checks = true;
    /// Shared firmware byte store: debug loads install their code as a
    /// copy-on-write RAM backing from here instead of copying into
    /// private pages, so fleet nodes running the same image share the
    /// bytes (docs/FLEET.md "memory diet"). Null = private copy.
    std::shared_ptr<FirmwareStore> firmware_store;
    /// Event-kernel quiescence (docs/SCHEDULER.md): fast-forward over
    /// provably idle cycles. Purely a speed knob — architecture-level
    /// results are bit-identical with it off.
    bool quiescence = true;
    /// Cross-device causal tracing (net/trace.h): outbound M2M frames
    /// carry an HMAC-covered trace-context extension, and the context
    /// of each authenticated inbound frame becomes the parent of the
    /// frames its handling produces. Off = v1 frames on the wire and
    /// no per-frame trace work at all.
    bool causal_tracing = true;
    /// Fleet device index: the span-id namespace and provenance
    /// identity used when causal_tracing is on (the Fleet sets it at
    /// enrolment; standalone nodes keep 0).
    std::uint32_t device_index = 0;
};

/// Runtime service/health counters every experiment reads.
struct NodeStats {
    std::uint64_t control_iterations = 0;
    std::uint64_t telemetry_frames = 0;
    std::uint64_t reboots = 0;
    sim::Cycle downtime_cycles = 0;
    std::uint64_t operator_alerts = 0;
};

class Node {
public:
    explicit Node(NodeConfig config);
    ~Node();

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    // --- Lifecycle --------------------------------------------------------
    /// Factory provisioning: vendor public key, device root secret
    /// (keys derive from it), TEE attestation key. On a resilient node
    /// this also builds the security engine, under the derived
    /// evidence-seal key. Call once.
    void provision(const crypto::MerklePublicKey& vendor_pk,
                   BytesView device_root);

    /// Secure-boots the chain; on success loads payloads and starts the
    /// CPU at the entry point. Returns the report either way.
    boot::BootReport secure_boot(
        const std::vector<boot::FirmwareImage>& chain);

    /// Loads an assembled program directly (test/bench shortcut that
    /// bypasses signature checks — factory debug port).
    void load_and_start(const isa::Program& program);

    /// Advances simulated time.
    void run(sim::Cycle cycles) { sim.run_for(cycles); }

    /// Watchdog/response-triggered reboot: CPU stalls for
    /// reboot_downtime cycles, then restarts at the last entry point.
    /// On the passive platform this also wipes the flight recorder,
    /// its volatile telemetry — the evidence-loss failure mode the
    /// paper calls out.
    void reboot(const std::string& reason);

    // --- Resilience wiring (only present when config.resilient) ----------
    /// Installs the default policy (or config.policy_dsl) and golden
    /// references (bus config, CFI targets); call after provision and
    /// secure_boot / load_and_start. Throws PlatformError on a resilient
    /// node that has not been provisioned.
    void arm_resilience(const isa::Program& program);

    /// Takes a known-good checkpoint now.
    void take_checkpoint();

    /// (Re)installs the superblock translation of the currently loaded
    /// firmware on the CPU (and lockstep shadow). Called automatically
    /// at every point code memory is (re)established — secure boot,
    /// debug load, reboot, checkpoint restore; exposed for tests. A
    /// no-op (beyond clearing any stale translation) when cfg.translate
    /// is off or the admission gate flagged the running image.
    void refresh_translation();

    /// Drains and demultiplexes inbound NIC frames: attestation
    /// challenges are answered by the secure world (TEE quote over the
    /// current PCRs); everything else goes through the authenticated
    /// channel, with outcomes fed to the network monitor. Call
    /// periodically (the scenario/fleet runners schedule it).
    void pump_network();

    // --- Forensics export -------------------------------------------------
    /// Appends this node's timeline to a Chrome Trace builder: one
    /// process track named after the device, one thread track per
    /// flight-recorder source (counter records become counter series),
    /// plus an "incidents" track rendering closed incidents as duration
    /// spans with CSF phase marks and still-open incidents as instants.
    void append_chrome_trace(obs::ChromeTrace& out) const;

    /// The single-device trace artefact (Perfetto/chrome://tracing).
    [[nodiscard]] std::string chrome_trace() const;

    // --- Config/state -----------------------------------------------------
    [[nodiscard]] const NodeConfig& config() const noexcept { return cfg; }
    [[nodiscard]] NodeStats& stats() noexcept { return stats_; }
    [[nodiscard]] const NodeStats& stats() const noexcept { return stats_; }
    [[nodiscard]] mem::Addr entry_point() const noexcept { return entry_; }

    // --- Substrate (always present) ---------------------------------------
    NodeConfig cfg;
    /// Declared before the devices: the sensor and the power sensor
    /// derive their state from this clock.
    sim::Simulator sim;
    /// Cycle-accurate metrics; security components bind at provision
    /// when cfg.metrics and cfg.resilient.
    obs::MetricsRegistry metrics;
    /// Always-on black box (bounded ring; capacity from config, 0 =
    /// disabled). Monitors and the SSM bind to it on resilient nodes;
    /// rare platform events (reboot, operator alert, image reject)
    /// land directly. On a passive node it is the volatile telemetry:
    /// heartbeats, boot and update outcomes, wiped by every reboot.
    obs::FlightRecorder recorder;
    /// Bounded SIEM staging buffer the SSM frames records into; the
    /// fleet export layer drains it deterministically (obs/siem.h).
    obs::SiemBuffer siem;
    mem::Bus bus;
    mem::Ram app_ram;
    mem::Ram tee_ram;
    dev::Uart uart;
    dev::Timer timer;
    dev::Watchdog watchdog;
    dev::DmaEngine dma;
    dev::Sensor sensor;
    dev::Actuator actuator;
    dev::Nic nic;
    dev::Trng trng;
    dev::PowerSensor power;
    isa::Cpu cpu;

    crypto::KeyStore keystore;
    crypto::MonotonicCounterBank counters;
    boot::PcrBank pcrs;
    tee::Tee tee;
    std::unique_ptr<boot::BootRom> rom;
    std::unique_ptr<boot::UpdateAgent> update_agent;
    /// Static-analysis admission gate (null when admission_mode==kOff);
    /// wired into both the boot ROM and the update agent at provision.
    std::unique_ptr<analysis::AnalysisGate> admission_gate;
    std::unique_ptr<net::SecureChannel> channel;  ///< After provision().

    // --- Lockstep shadow core (config.lockstep) ----------------------------
    std::unique_ptr<mem::Bus> shadow_bus;
    std::unique_ptr<mem::Ram> shadow_ram;
    std::unique_ptr<isa::Cpu> shadow_cpu;
    std::unique_ptr<PeripheralMirror> mirror;

    /// Copies the primary's CPU+RAM state onto the shadow (used after
    /// checkpoint restores so the pair re-converges).
    void resync_shadow();

    // --- Resilience stack (null on the passive baseline) -------------------
    // Recovery and degradation exist from construction; the SSM, the
    // monitors and the response manager from provision().
    std::unique_ptr<core::SystemSecurityManager> ssm;
    std::unique_ptr<core::BusMonitor> bus_monitor;
    std::unique_ptr<core::CfiMonitor> cfi_monitor;
    std::unique_ptr<core::MemoryMonitor> memory_monitor;
    std::unique_ptr<core::DiftMonitor> dift_monitor;
    std::unique_ptr<core::PeripheralMonitor> peripheral_monitor;
    std::unique_ptr<core::TimingMonitor> timing_monitor;
    std::unique_ptr<core::NetworkMonitor> network_monitor;
    std::unique_ptr<core::EnvironmentMonitor> environment_monitor;
    std::unique_ptr<core::ConfigMonitor> config_monitor;
    std::unique_ptr<core::RedundancyMonitor> redundancy_monitor;
    std::unique_ptr<core::RecoveryManager> recovery;
    std::unique_ptr<core::DegradationManager> degradation;
    std::unique_ptr<core::ActiveResponseManager> response_manager;

    /// Default policy text used when config.policy_dsl is empty.
    static std::string default_policy();

private:
    void build_memory_map();
    void install_os_services();
    /// Places a debug-loaded program's code into app RAM: through the
    /// shared firmware store as a copy-on-write backing when one is
    /// configured, else as a private copy.
    void install_program_image(const isa::Program& program);
    /// Builds SSM + monitors + response manager, sealing evidence under
    /// `seal_key`, and binds them to the metrics, recorder and SIEM
    /// buffer. Called once, at the end of provision().
    void build_security_engine(Bytes seal_key);

    NodeStats stats_;
    /// Recorder ids of a passive node's heartbeat record, interned at
    /// construction so a heartbeat costs one ring write.
    std::uint16_t heartbeat_source_ = 0;
    std::uint16_t heartbeat_kind_ = 0;
    mem::Addr entry_ = kCodeBase;
    bool telemetry_enabled_ = true;
    bool rebooting_ = false;
    /// Admission gate reported errors on the running image (kWarn mode
    /// admits it anyway): run it interpreted, never from a translation.
    bool translation_vetoed_ = false;
    std::vector<boot::FirmwareImage> boot_chain_;
    std::optional<isa::Program> loaded_program_;
};

}  // namespace cres::platform
