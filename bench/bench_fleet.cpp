// E13 — Fleet-scale operation: an operator backend running periodic
// attestation sweeps and health collection over a device population
// while a subset is attacked. Measures localisation (which devices get
// flagged), fleet service, sweep cost vs fleet size, and (E13c)
// parallel scaling: devices/sec and speedup across worker-thread
// counts, with the determinism contract checked against the serial
// run — the operational picture the paper's critical-infrastructure
// setting implies.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "attack/attacks.h"
#include "attack/campaigns.h"
#include "bench_util.h"
#include "platform/fleet.h"

namespace {

using namespace cres;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/// E13d sweep sizes: CRES_E13D_DEVICES (comma-separated) overrides the
/// default. CI uses "50000"; the million-node headline run uses
/// "10000,100000,1000000"; the default stays small enough for the
/// build-test smoke run.
std::vector<std::size_t> e13d_device_counts() {
    if (const char* env = std::getenv("CRES_E13D_DEVICES")) {
        std::vector<std::size_t> out;
        const std::string s(env);
        std::size_t pos = 0;
        while (pos <= s.size()) {
            std::size_t next = s.find(',', pos);
            if (next == std::string::npos) next = s.size();
            const std::string token = s.substr(pos, next - pos);
            if (!token.empty()) {
                out.push_back(
                    static_cast<std::size_t>(std::stoull(token)));
            }
            pos = next + 1;
        }
        if (!out.empty()) return out;
    }
    return {1000, 10000};
}

/// E16 sweep sizes: CRES_E16_DEVICES (comma-separated) overrides the
/// default. CI uses "10000"; the paper sweep is "1000,10000,50000";
/// the default stays small for the build-test smoke run.
std::vector<std::size_t> e16_device_counts() {
    if (const char* env = std::getenv("CRES_E16_DEVICES")) {
        std::vector<std::size_t> out;
        const std::string s(env);
        std::size_t pos = 0;
        while (pos <= s.size()) {
            std::size_t next = s.find(',', pos);
            if (next == std::string::npos) next = s.size();
            const std::string token = s.substr(pos, next - pos);
            if (!token.empty()) {
                out.push_back(
                    static_cast<std::size_t>(std::stoull(token)));
            }
            pos = next + 1;
        }
        if (!out.empty()) return out;
    }
    return {256, 1000};
}

/// E17 estate size: CRES_E17_DEVICES overrides the default. CI uses a
/// size large enough for a stable drain-overhead ratio; the default
/// stays small for the build-test smoke run.
std::size_t e17_device_count() {
    if (const char* env = std::getenv("CRES_E17_DEVICES")) {
        const std::size_t v = static_cast<std::size_t>(std::stoull(env));
        if (v > 0) return v;
    }
    return 256;
}

/// The E16 estate: resilient WFI control nodes (monitors + SSM feed
/// the per-device SIEM buffers), quiescence on — campaign verdicts are
/// scheduler-invariant, so the fast path is safe to benchmark on.
platform::FleetConfig campaign_estate_config(std::size_t devices) {
    platform::FleetConfig config;
    config.device_count = devices;
    config.resilient = true;
    config.seed = 53;
    config.interrupt_workload = true;
    config.quiescence = true;
    config.worker_threads = 0;
    return config;
}

/// Detection latency (first contributing evidence -> detection) of the
/// first campaign of `kind`, or 0 when none was detected.
std::uint64_t campaign_latency(const platform::Fleet& fleet,
                               platform::CampaignKind kind) {
    for (const auto& c : fleet.campaign_monitor().campaigns()) {
        if (c.kind == kind) return c.detected_at - c.first_at;
    }
    return 0;
}

bool campaign_detected(const platform::Fleet& fleet,
                       platform::CampaignKind kind) {
    for (const auto& c : fleet.campaign_monitor().campaigns()) {
        if (c.kind == kind) return true;
    }
    return false;
}

/// The E13d estate: passive interrupt-driven control nodes — the
/// configuration a million-device deployment actually looks like
/// (cores in WFI between timer interrupts, observability turned down).
platform::FleetConfig passive_estate_config(std::size_t devices,
                                            bool quiescence) {
    platform::FleetConfig config;
    config.device_count = devices;
    config.resilient = false;
    config.seed = 47;
    config.metrics = false;
    config.flight_recorder_capacity = 0;
    config.interrupt_workload = true;
    config.quiescence = quiescence;
    return config;
}

/// Architectural digest of the whole estate: per-device retired
/// instructions, cycle counters, service counters, sensor sample
/// counts and actuator setpoints, folded in device-index order. The
/// quiescence differential gate compares digests, so a fast-forwarded
/// run must reproduce per-cycle execution bit-for-bit to pass.
crypto::Hash256 estate_digest(platform::Fleet& fleet) {
    crypto::Sha256 h;
    Bytes word(8);
    const auto fold = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            word[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
        }
        h.update(word);
    };
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        platform::Node& node = fleet.device(i);
        fold(node.sim.now());
        fold(node.cpu.csr(isa::kCsrMcycle));
        fold(node.cpu.csr(isa::kCsrMinstret));
        fold(node.stats().control_iterations);
        fold(node.sensor.samples());
        fold(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(dev::to_fixed(node.actuator.current()))));
        fold(node.actuator.command_count());
    }
    return h.finish();
}

/// One full operator epoch: advance the fleet, sweep it, collect
/// health. This is the unit the scaling table rates in devices/sec.
platform::SweepResult fleet_epoch(platform::Fleet& fleet,
                                  sim::Cycle cycles) {
    fleet.run(cycles);
    platform::SweepResult sweep = fleet.attestation_sweep();
    (void)fleet.collect_health();
    return sweep;
}

}  // namespace

int main() {
    bench::section("E13a — Compromise localisation in a 8-device fleet");
    {
        platform::FleetConfig config;
        config.device_count = 8;
        config.resilient = true;
        config.seed = 44;
        platform::Fleet fleet(config);
        fleet.run(20000);
        fleet.checkpoint_all();

        // Wave of trouble: firmware implant on #2, key loss on #5,
        // runtime breach on #6.
        crypto::Hash256 implant;
        implant.fill(0x66);
        fleet.device(2).pcrs.extend(boot::PcrBank::kPcrFirmware, implant);
        fleet.device(5).tee_ram.fill(0);
        attack::StackSmashAttack smash;
        smash.launch(fleet.device(6), fleet.device(6).sim.now() + 2000);
        fleet.run(40000);

        const auto sweep = fleet.attestation_sweep();
        const auto health = fleet.collect_health();

        bench::Table table({"device", "attestation verdict", "SSM health",
                            "report verified", "evidence records",
                            "ctrl iterations"});
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            table.row("device-" + std::to_string(i),
                      net::attest_result_name(sweep.verdicts[i]),
                      core::health_state_name(health.states[i]),
                      bench::yesno(health.report_valid[i]),
                      fleet.device(i).ssm->evidence().size(),
                      fleet.device(i).stats().control_iterations);
        }
        table.print();
        std::cout << "\nsweep: " << sweep.trusted << " trusted, "
                  << sweep.flagged << " flagged; flagged devices:";
        for (const auto i : sweep.flagged_devices()) std::cout << " #" << i;
        std::cout << "\nExpected shape: exactly the implanted (#2) and "
                     "key-wiped (#5) devices fail attestation; the runtime "
                     "breach on #6 passes attestation (firmware unchanged) "
                     "but its signed evidence log carries the incident — "
                     "the two mechanisms localise different attack stages.\n";
    }

    bench::section("E13b — Sweep cost vs fleet size");
    {
        bench::Table table({"devices", "enrol+warmup wall (ms)",
                            "sweep wall (ms)", "all trusted"});
        for (const std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
            platform::FleetConfig config;
            config.device_count = n;
            config.resilient = true;
            config.seed = 45;
            const auto t0 = std::chrono::steady_clock::now();
            platform::Fleet fleet(config);
            fleet.run(5000);
            const auto t1 = std::chrono::steady_clock::now();
            const auto sweep = fleet.attestation_sweep();
            const auto t2 = std::chrono::steady_clock::now();
            table.row(
                n,
                bench::fmt_double(
                    std::chrono::duration<double, std::milli>(t1 - t0)
                        .count(),
                    1),
                bench::fmt_double(
                    std::chrono::duration<double, std::milli>(t2 - t1)
                        .count(),
                    1),
                bench::yesno(sweep.trusted == n));
        }
        table.print();
        std::cout << "\nExpected shape: both costs linear in fleet size "
                     "(per-device HMAC quote + verify); attestation "
                     "scales to fleets without per-device state explosion."
                     "\n";
    }

    bench::section("E13c — Parallel scaling: devices/sec vs worker threads");
    {
        const std::size_t hw = std::max(
            1u, std::thread::hardware_concurrency());
        std::cout << "hardware concurrency: " << hw << " (threads=hw row)\n"
                  << "epoch = enrol once, then run 2000 cycles + "
                     "attestation sweep + health collection\n\n";

        constexpr sim::Cycle kEpochCycles = 2000;
        // Each (devices, threads) point runs twice: guest-code
        // translation on (the default) and off (interpreter ablation,
        // docs/EXECUTION.md). Both must produce the serial verdicts —
        // translation is a speed knob, never a semantics knob.
        bench::Table table({"devices", "threads", "enrol (ms)",
                            "epoch xlat (ms)", "epoch interp (ms)",
                            "devices/sec xlat", "devices/sec interp",
                            "thread speedup", "xlat speedup",
                            "verdicts == serial"});
        for (const std::size_t devices :
             {std::size_t{8}, std::size_t{64}, std::size_t{256},
              std::size_t{1024}}) {
            platform::SweepResult serial_sweep;
            double serial_epoch_s = 0.0;

            std::vector<std::size_t> thread_counts{1, 2, 4};
            if (std::find(thread_counts.begin(), thread_counts.end(), hw) ==
                thread_counts.end()) {
                thread_counts.push_back(hw);
            }
            for (const std::size_t threads : thread_counts) {
                platform::FleetConfig config;
                config.device_count = devices;
                config.resilient = true;
                config.seed = 46;
                config.worker_threads = threads;

                const auto t0 = std::chrono::steady_clock::now();
                platform::Fleet fleet(config);
                const double enrol_s = seconds_since(t0);

                const auto t1 = std::chrono::steady_clock::now();
                const platform::SweepResult sweep =
                    fleet_epoch(fleet, kEpochCycles);
                const double epoch_s = seconds_since(t1);

                // Same fleet, guest translation off: every device
                // interprets every instruction.
                config.translate = false;
                platform::Fleet interp_fleet(config);
                const auto t2 = std::chrono::steady_clock::now();
                const platform::SweepResult interp_sweep =
                    fleet_epoch(interp_fleet, kEpochCycles);
                const double interp_epoch_s = seconds_since(t2);

                // Determinism contract: every thread count — and both
                // execution engines — reproduces the serial verdict
                // vector bit-for-bit.
                bool matches_serial = true;
                if (threads == 1) {
                    serial_sweep = sweep;
                    serial_epoch_s = epoch_s;
                } else {
                    matches_serial = sweep.verdicts == serial_sweep.verdicts;
                }
                matches_serial = matches_serial &&
                                 interp_sweep.verdicts == sweep.verdicts;

                table.row(devices,
                          threads == hw && threads != 1 &&
                                  threads != 2 && threads != 4
                              ? std::to_string(threads) + " (hw)"
                              : std::to_string(threads),
                          bench::fmt_double(enrol_s * 1e3, 1),
                          bench::fmt_double(epoch_s * 1e3, 1),
                          bench::fmt_double(interp_epoch_s * 1e3, 1),
                          bench::fmt_double(
                              static_cast<double>(devices) / epoch_s, 0),
                          bench::fmt_double(
                              static_cast<double>(devices) / interp_epoch_s,
                              0),
                          bench::fmt_double(serial_epoch_s / epoch_s, 2),
                          bench::fmt_double(interp_epoch_s / epoch_s, 2),
                          bench::yesno(matches_serial));
            }
        }
        table.print();
        std::cout << "\nExpected shape: near-linear thread speedup up to "
                     "the physical core count (device-nodes are fully "
                     "thread-confined; no locks on the hot path), flat "
                     "beyond it; translation adds a further per-core "
                     "multiplier on the guest-execution share of the "
                     "epoch (attestation crypto is unaffected). The "
                     "verdict column must read yes everywhere — neither "
                     "parallelism nor the execution engine ever changes "
                     "results, only wall time.\n";
    }

    bench::JsonReporter json;
    json.field("bench", "fleet");
    bool e13d_ok = true;

    bench::section(
        "E13d — Quiescence speedup: WFI estate, per-cycle vs fast-forward");
    {
        // Fixed size, so the skip fraction is deterministic; CI gates
        // it and the same-run speedup.
        constexpr std::size_t kDevices = 64;
        constexpr sim::Cycle kCycles = 50000;

        platform::Fleet baseline(passive_estate_config(kDevices, false));
        const auto t0 = std::chrono::steady_clock::now();
        baseline.run(kCycles);
        const double percycle_s = seconds_since(t0);
        const crypto::Hash256 baseline_digest = estate_digest(baseline);

        platform::Fleet quick(passive_estate_config(kDevices, true));
        const auto t1 = std::chrono::steady_clock::now();
        quick.run(kCycles);
        const double quick_s = seconds_since(t1);
        const crypto::Hash256 quick_digest = estate_digest(quick);

        const bool deterministic = baseline_digest == quick_digest;
        const double speedup = percycle_s / quick_s;
        const double node_cycles = static_cast<double>(kDevices) *
                                   static_cast<double>(kCycles);
        const double skip_fraction =
            static_cast<double>(quick.fleet_cycles_skipped()) / node_cycles;

        bench::Table table({"scheduler", "wall (ms)", "node-cycles/sec",
                            "cycles skipped", "digest == per-cycle"});
        table.row("per-cycle", bench::fmt_double(percycle_s * 1e3, 1),
                  bench::fmt_double(node_cycles / percycle_s, 0),
                  std::uint64_t{0}, "(reference)");
        table.row("quiescence", bench::fmt_double(quick_s * 1e3, 1),
                  bench::fmt_double(node_cycles / quick_s, 0),
                  quick.fleet_cycles_skipped(),
                  bench::yesno(deterministic));
        table.print();
        std::cout << "\nspeedup: " << bench::fmt_double(speedup, 2)
                  << "x (gate: >= 5x); skipped "
                  << bench::fmt_double(skip_fraction * 100.0, 1)
                  << "% of node-cycles\n"
                  << "Expected shape: WFI cores plus event-horizon "
                     "fast-forward elide almost every idle tick; the "
                     "digest column must read yes — fast-forward is a "
                     "speed knob, never a semantics knob.\n";

        if (!deterministic || speedup < 5.0) e13d_ok = false;
        json.metric("e13d_speedup_x", speedup);
        json.metric("e13d_percycle_node_cycles_per_s",
                    node_cycles / percycle_s);
        json.metric("e13d_quiescence_node_cycles_per_s",
                    node_cycles / quick_s);
        json.metric("e13d_skip_fraction", skip_fraction);
        json.field("e13d_determinism", deterministic ? "ok" : "MISMATCH");
    }

    bench::section("E13d — Fleet memory diet: bytes/node at estate scale");
    {
        constexpr sim::Cycle kCycles = 4000;
        const std::vector<std::size_t> counts = e13d_device_counts();

        bench::Table table({"devices", "enrol (s)", "run (s)",
                            "node-cycles/sec", "rss bytes/node",
                            "resident ram bytes/node", "fw images",
                            "fw store KiB"});
        std::size_t largest = 0;
        for (const std::size_t devices : counts) {
            const std::size_t rss_before = bench::current_rss_bytes();
            const auto t0 = std::chrono::steady_clock::now();
            platform::Fleet fleet(passive_estate_config(devices, true));
            const double enrol_s = seconds_since(t0);

            const auto t1 = std::chrono::steady_clock::now();
            fleet.run(kCycles);
            const double run_s = seconds_since(t1);
            const std::size_t rss_after = bench::current_rss_bytes();

            // Allocator reuse makes the delta approximate (and the
            // probe reads 0 off-Linux); sizes run ascending so the
            // largest — the number that matters — is the most honest.
            const double rss_per_node =
                rss_after > rss_before
                    ? static_cast<double>(rss_after - rss_before) /
                          static_cast<double>(devices)
                    : 0.0;
            const double node_cycles = static_cast<double>(devices) *
                                       static_cast<double>(kCycles);
            const double ram_per_node =
                static_cast<double>(fleet.fleet_resident_ram_bytes()) /
                static_cast<double>(devices);

            table.row(devices, bench::fmt_double(enrol_s, 2),
                      bench::fmt_double(run_s, 2),
                      bench::fmt_double(node_cycles / run_s, 0),
                      bench::fmt_double(rss_per_node, 0),
                      bench::fmt_double(ram_per_node, 0),
                      fleet.firmware_store().size(),
                      fleet.firmware_store().stored_bytes() / 1024);

            const std::string tag = std::to_string(devices);
            json.metric("e13d_mem_" + tag + "_rss_bytes_per_node",
                        rss_per_node);
            json.metric("e13d_mem_" + tag + "_ram_bytes_per_node",
                        ram_per_node);
            json.metric("e13d_mem_" + tag + "_node_cycles_per_s",
                        node_cycles / run_s);
            json.metric("e13d_mem_" + tag + "_enrol_s", enrol_s);
            largest = std::max(largest, devices);
        }
        table.print();
        json.metric("e13d_devices_max", static_cast<double>(largest));
        json.metric("peak_rss_bytes",
                    static_cast<double>(bench::peak_rss_bytes()));
        std::cout << "\nExpected shape: bytes/node flat (page-table "
                     "overhead plus touched pages) rather than linear in "
                     "firmware size — the estate shares one "
                     "copy-on-write image per distinct firmware.\n";
    }

    bench::section(
        "E13e — Shared analysis artifact & proof-carrying check elision");
    {
        // Every device runs the same firmware, so the estate should
        // prove it exactly once: one abstract-interpretation artifact
        // in the fleet analysis cache, every other admission/translation
        // a cache hit. Elision is then A/B'd with the same estate
        // digest contract quiescence uses — a speed knob, never a
        // semantics knob.
        constexpr std::size_t kDevices = 64;
        constexpr sim::Cycle kCycles = 50000;

        platform::Fleet elide_fleet(passive_estate_config(kDevices, true));
        const auto t0 = std::chrono::steady_clock::now();
        elide_fleet.run(kCycles);
        const double elide_s = seconds_since(t0);
        const crypto::Hash256 elide_digest = estate_digest(elide_fleet);

        platform::FleetConfig off_config =
            passive_estate_config(kDevices, true);
        off_config.elide_proven_checks = false;
        platform::Fleet checked_fleet(off_config);
        const auto t1 = std::chrono::steady_clock::now();
        checked_fleet.run(kCycles);
        const double checked_s = seconds_since(t1);
        const crypto::Hash256 checked_digest = estate_digest(checked_fleet);

        const std::size_t artifacts = elide_fleet.analysis_cache().size();
        const std::uint64_t cache_hits = elide_fleet.analysis_cache().hits();
        const bool deterministic = elide_digest == checked_digest;
        const bool shared = artifacts == 1 && cache_hits >= kDevices - 1;
        const double speedup = checked_s / elide_s;

        bench::Table table({"execution", "wall (ms)", "proof artifacts",
                            "cache hits", "digest == checks-on"});
        table.row("checks on", bench::fmt_double(checked_s * 1e3, 1),
                  checked_fleet.analysis_cache().size(),
                  checked_fleet.analysis_cache().hits(), "(reference)");
        table.row("elision", bench::fmt_double(elide_s * 1e3, 1), artifacts,
                  cache_hits, bench::yesno(deterministic));
        table.print();
        std::cout << "\nelision speedup: " << bench::fmt_double(speedup, 2)
                  << "x on this ALU-bound estate (the per-access win "
                     "tracks the workload's memory-op share — see E15b "
                     "for the memory-bound bound)\n"
                  << "Expected shape: exactly 1 proof artifact for "
                  << kDevices << " devices (one distinct firmware), all "
                  << "other lookups hits; the digest column must read "
                     "yes — elided and checked execution are "
                     "architecturally identical.\n";

        if (!deterministic || !shared) e13d_ok = false;
        json.metric("e13e_proof_artifacts", static_cast<double>(artifacts));
        json.metric("e13e_proof_cache_hits",
                    static_cast<double>(cache_hits));
        json.metric("e13e_elision_speedup_x", speedup);
        json.field("e13e_determinism", deterministic ? "ok" : "MISMATCH");
        json.field("e13e_artifact_sharing", shared ? "ok" : "MISMATCH");
    }

    bool e16_ok = true;

    bench::section(
        "E16 — Campaign detection: latency vs fleet size (SIEM export)");
    {
        // All three campaign classes on estates of increasing size. The
        // cycle-domain detection latency should be INVARIANT in fleet
        // size (the correlation engine counts devices, not records);
        // what scales is the wall cost of the drain/verify pipeline.
        const std::vector<std::size_t> counts = e16_device_counts();
        constexpr sim::Cycle kCycles = 20000;

        bench::Table table({"devices", "enrol (s)", "run (s)",
                            "drain (ms)", "records", "records/sec",
                            "verify (ms)", "worm lat (cyc)",
                            "replay lat (cyc)", "downgrade lat (cyc)",
                            "chain ok"});
        const std::size_t largest =
            *std::max_element(counts.begin(), counts.end());
        for (const std::size_t devices : counts) {
            const auto t0 = std::chrono::steady_clock::now();
            platform::Fleet fleet(campaign_estate_config(devices));
            const double enrol_s = seconds_since(t0);

            attack::WormCampaign worm;
            attack::CoordinatedReplayCampaign::Options replay_opt;
            replay_opt.replay_at = 15000;
            replay_opt.stagger = 20;
            // The correlation bar needs >= 8 devices; capping the
            // replay taps keeps the wire overhead flat at estate scale.
            replay_opt.device_count = std::min<std::size_t>(devices, 512);
            attack::CoordinatedReplayCampaign replay(replay_opt);
            attack::StaggeredDowngradeCampaign downgrade;
            worm.launch(fleet);
            replay.launch(fleet);
            downgrade.launch(fleet);

            const auto t1 = std::chrono::steady_clock::now();
            fleet.run(kCycles);
            const double run_s = seconds_since(t1);

            const auto t2 = std::chrono::steady_clock::now();
            const std::size_t records = fleet.drain_siem();
            const double drain_s = seconds_since(t2);

            const auto t3 = std::chrono::steady_clock::now();
            const obs::SiemVerifyResult verdict = obs::SiemStream::verify(
                fleet.siem_stream().jsonl(), fleet.siem_key());
            const double verify_s = seconds_since(t3);

            const std::uint64_t worm_lat =
                campaign_latency(fleet, platform::CampaignKind::kWorm);
            const std::uint64_t replay_lat = campaign_latency(
                fleet, platform::CampaignKind::kCoordinatedReplay);
            const std::uint64_t downgrade_lat = campaign_latency(
                fleet, platform::CampaignKind::kStaggeredDowngrade);
            const bool all_detected =
                campaign_detected(fleet, platform::CampaignKind::kWorm) &&
                campaign_detected(
                    fleet, platform::CampaignKind::kCoordinatedReplay) &&
                campaign_detected(
                    fleet, platform::CampaignKind::kStaggeredDowngrade);
            if (!all_detected || !verdict.ok) e16_ok = false;

            table.row(devices, bench::fmt_double(enrol_s, 2),
                      bench::fmt_double(run_s, 2),
                      bench::fmt_double(drain_s * 1e3, 1), records,
                      bench::fmt_double(
                          static_cast<double>(records) / drain_s, 0),
                      bench::fmt_double(verify_s * 1e3, 1), worm_lat,
                      replay_lat, downgrade_lat,
                      bench::yesno(verdict.ok));

            const std::string tag = std::to_string(devices);
            json.metric("e16_" + tag + "_records",
                        static_cast<double>(records));
            json.metric("e16_" + tag + "_drain_ms", drain_s * 1e3);
            json.metric("e16_" + tag + "_records_per_s",
                        static_cast<double>(records) / drain_s);
            json.metric("e16_" + tag + "_verify_ms", verify_s * 1e3);
            json.metric("e16_" + tag + "_worm_latency_cycles",
                        static_cast<double>(worm_lat));
            json.metric("e16_" + tag + "_replay_latency_cycles",
                        static_cast<double>(replay_lat));
            json.metric("e16_" + tag + "_downgrade_latency_cycles",
                        static_cast<double>(downgrade_lat));

            if (devices == largest) {
                // Headline series for the CI regression gate, plus the
                // jq-checked status fields. Emitted only for the largest
                // size so the JSON holds each key exactly once.
                json.metric("e16_detection_latency_cycles",
                            static_cast<double>(worm_lat));
                json.metric("e16_campaigns",
                            static_cast<double>(
                                fleet.campaign_monitor().campaigns().size()));
                json.field("e16_chain", verdict.ok ? "ok" : "FAILED");
                json.field("e16_worm",
                           campaign_detected(fleet,
                                             platform::CampaignKind::kWorm)
                               ? "detected"
                               : "MISSING");
                // Optional stream artefact for CI upload.
                if (const char* dump = std::getenv("CRES_SIEM_JSONL")) {
                    std::ofstream out(dump, std::ios::binary);
                    out << fleet.siem_stream().jsonl();
                    std::cout << "wrote SIEM stream (" << devices
                              << " devices) to " << dump << "\n";
                }
            }
        }
        table.print();
        json.metric("e16_devices_max", static_cast<double>(largest));
        std::cout << "\nExpected shape: detection latency flat in fleet "
                     "size (the bar is device count, not record count); "
                     "drain and offline verify scale linearly with "
                     "records. chain ok must read yes everywhere.\n";
    }

    bench::section("E16 — Worm detection latency vs infection rate");
    {
        // Infection rate = worm fanout: how many fresh victims each
        // infected device probes per generation. Faster spread crosses
        // the 8-device component bar in fewer hops.
        constexpr std::size_t kDevices = 256;
        bench::Table table({"fanout", "infections", "first probe (cyc)",
                            "detected at (cyc)", "latency (cyc)",
                            "detected"});
        for (const std::size_t fanout :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
            platform::Fleet fleet(campaign_estate_config(kDevices));
            attack::WormCampaign::Options opt;
            opt.fanout = fanout;
            attack::WormCampaign worm(opt);
            worm.launch(fleet);
            fleet.run(15000);
            (void)fleet.drain_siem();

            const bool detected =
                campaign_detected(fleet, platform::CampaignKind::kWorm);
            const std::uint64_t latency =
                campaign_latency(fleet, platform::CampaignKind::kWorm);
            std::uint64_t detected_at = 0;
            for (const auto& c : fleet.campaign_monitor().campaigns()) {
                if (c.kind == platform::CampaignKind::kWorm) {
                    detected_at = c.detected_at;
                }
            }
            if (!detected) e16_ok = false;

            table.row(fanout, worm.infections(), worm.first_probe_at(),
                      detected_at, latency, bench::yesno(detected));
            json.metric("e16_worm_f" + std::to_string(fanout) +
                            "_latency_cycles",
                        static_cast<double>(latency));
        }
        table.print();
        std::cout << "\nExpected shape: latency falls as fanout rises — "
                     "an aggressive worm is caught in fewer generations; "
                     "a slow one takes longer but is still invisible to "
                     "every individual device either way.\n";
    }

    bool e17_ok = true;

    bench::section(
        "E17 — Causal tracing: provenance accuracy & drain overhead");
    {
        // The same worm on two otherwise identical estates: one with
        // trace propagation on (the default), one with causal_tracing
        // off (v1 wire bytes, blind union-find fallback). Accuracy is
        // checked edge-for-edge against the campaign's own ground
        // truth. The traced estate must drain as many records as the
        // untraced one, with an export at most ~2% larger.
        const std::size_t devices = e17_device_count();
        constexpr sim::Cycle kCycles = 20000;

        platform::Fleet traced(campaign_estate_config(devices));
        attack::WormCampaign traced_worm;
        traced_worm.launch(traced);
        const auto t0 = std::chrono::steady_clock::now();
        traced.run(kCycles);
        const double traced_run_s = seconds_since(t0);
        const auto t1 = std::chrono::steady_clock::now();
        const std::size_t traced_records = traced.drain_siem();
        const double traced_drain_s = seconds_since(t1);
        const std::size_t traced_bytes = traced.siem_stream().jsonl().size();

        // Accuracy vs ground truth: patient zero, depth and the exact
        // (parent, child, hop) edge set the campaign actually injected.
        const platform::ProvenanceReport& report =
            traced.campaign_monitor().provenance();
        bool exact =
            report.traced && report.exact &&
            report.patient_zero ==
                static_cast<std::uint32_t>(traced_worm.patient_zero()) &&
            report.max_hop == traced_worm.max_depth() &&
            report.edges.size() == traced_worm.edges().size();
        if (exact) {
            std::vector<std::uint64_t> got;
            std::vector<std::uint64_t> want;
            const auto key = [](std::uint32_t parent, std::uint32_t child,
                                std::uint32_t hop) {
                return (std::uint64_t{parent} << 40) |
                       (std::uint64_t{child} << 8) | hop;
            };
            for (const auto& e : report.edges) {
                got.push_back(key(e.parent, e.child, e.hop));
            }
            for (const auto& e : traced_worm.edges()) {
                want.push_back(key(e.parent, e.child, e.hop));
            }
            std::sort(got.begin(), got.end());
            std::sort(want.begin(), want.end());
            exact = got == want;
        }

        platform::FleetConfig off_config = campaign_estate_config(devices);
        off_config.causal_tracing = false;
        platform::Fleet untraced(off_config);
        attack::WormCampaign untraced_worm;
        untraced_worm.launch(untraced);
        const auto t2 = std::chrono::steady_clock::now();
        untraced.run(kCycles);
        const double untraced_run_s = seconds_since(t2);
        const auto t3 = std::chrono::steady_clock::now();
        const std::size_t untraced_records = untraced.drain_siem();
        const double untraced_drain_s = seconds_since(t3);
        const std::size_t untraced_bytes =
            untraced.siem_stream().jsonl().size();

        // Off-knob sanity: no trace bytes reach the reconstructor and
        // the union-find fallback still detects the campaign.
        const bool off_clean =
            !untraced.campaign_monitor().provenance().traced &&
            campaign_detected(untraced, platform::CampaignKind::kWorm);
        const double drain_ratio = untraced_drain_s > 0.0
                                       ? traced_drain_s / untraced_drain_s
                                       : 0.0;
        if (!exact || !off_clean) e17_ok = false;

        bench::Table table({"mode", "devices", "run (ms)", "drain (ms)",
                            "drain vs untraced", "records", "JSONL bytes",
                            "edges", "depth", "provenance"});
        table.row("traced", devices,
                  bench::fmt_double(traced_run_s * 1e3, 1),
                  bench::fmt_double(traced_drain_s * 1e3, 1),
                  bench::fmt_double(drain_ratio, 2) + "x", traced_records,
                  traced_bytes, report.edges.size(), report.max_hop,
                  exact ? "exact" : "MISSING");
        table.row("untraced", devices,
                  bench::fmt_double(untraced_run_s * 1e3, 1),
                  bench::fmt_double(untraced_drain_s * 1e3, 1),
                  "(reference)", untraced_records, untraced_bytes, 0, 0,
                  off_clean ? "union-find" : "MISSING");
        table.print();

        json.field("e17_provenance", exact ? "exact" : "MISSING");
        json.field("e17_untraced_fallback",
                   off_clean ? "union-find" : "MISSING");
        json.metric("e17_devices", static_cast<double>(devices));
        json.metric("e17_edges",
                    static_cast<double>(report.edges.size()));
        json.metric("e17_max_hop", static_cast<double>(report.max_hop));
        json.metric("e17_traced_run_ms", traced_run_s * 1e3);
        json.metric("e17_traced_drain_ms", traced_drain_s * 1e3);
        json.metric("e17_untraced_run_ms", untraced_run_s * 1e3);
        json.metric("e17_untraced_drain_ms", untraced_drain_s * 1e3);
        json.metric("e17_drain_overhead_ratio", drain_ratio);
        json.count("e17_traced_records", traced_records);
        json.count("e17_untraced_records", untraced_records);
        json.count("e17_traced_jsonl_bytes", traced_bytes);
        json.count("e17_untraced_jsonl_bytes", untraced_bytes);
        std::cout << "\nExpected shape: the reconstructed DAG matches the "
                     "campaign's ground truth edge-for-edge (provenance "
                     "reads exact), the off-knob estate falls back to the "
                     "blind union-find verdict with zero trace bytes, and "
                     "both estates drain the same records; tracing adds a "
                     "trace object to the frame-borne ones, about 1% of "
                     "the export's bytes. The drain's wall-clock ratio is "
                     "shown for reference only: it varies by tens of "
                     "percent between runs.\n";
    }

    if (const char* path = std::getenv("CRES_BENCH_JSON")) {
        if (json.write(path)) std::cout << "\nwrote " << path << "\n";
    }
    return (e13d_ok && e16_ok && e17_ok) ? 0 : 1;
}
