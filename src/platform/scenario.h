// Scenario runner: the standard experiment harness used by benches,
// examples and integration tests.
//
// A scenario is one device node (passive or resilient) running the
// control-loop workload, linked over M2M to an operator peer that
// sends periodic commands and receives telemetry. Attacks are launched
// at a chosen cycle; the result captures service, containment,
// detection and evidence metrics — ground truth measured at the wire
// and the plant, independent of the defence's own telemetry.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "attack/attack_fwd.h"
#include "crypto/merkle.h"
#include "dev/nic.h"
#include "net/channel.h"
#include "platform/node.h"
#include "platform/workload.h"

namespace cres::platform {

struct ScenarioConfig {
    NodeConfig node;
    ControlLoopOptions workload;
    sim::Cycle warmup = 20000;    ///< Clean running-in before attack.
    sim::Cycle horizon = 200000;  ///< Total simulated cycles.
    std::uint64_t seed = 1;
};

struct ScenarioResult {
    // Service.
    std::uint64_t control_iterations = 0;
    std::uint64_t telemetry_frames = 0;
    std::uint64_t reboots = 0;
    sim::Cycle downtime_cycles = 0;

    // Containment (wire/plant ground truth).
    std::uint64_t leaked_bytes = 0;    ///< Secret bytes that left the device.
    /// Actuator commands clamped or outside ±Actuator::kRatedLimit.
    std::uint64_t unsafe_commands = 0;
    double actuator_travel = 0.0;

    // Detection & response (resilient platforms only).
    bool detected = false;
    bool responded = false;
    std::optional<sim::Cycle> detection_latency;
    std::uint64_t responses_executed = 0;
    std::uint64_t operator_alerts = 0;

    // Evidence.
    std::size_t evidence_records = 0;
    std::size_t attack_window_records = 0;  ///< Evidence from the attack era.
    bool evidence_chain_ok = false;

    // Attack ground truth.
    bool attack_succeeded = false;
};

class Scenario {
public:
    explicit Scenario(ScenarioConfig config);
    ~Scenario();

    /// The device under test.
    [[nodiscard]] Node& node() noexcept { return *node_; }
    /// The operator-side link endpoint (attack surface for MITM).
    [[nodiscard]] dev::Link& link() noexcept { return link_; }
    [[nodiscard]] dev::Nic& peer_nic() noexcept { return peer_nic_; }

    /// The provisioned secrets whose escape counts as a leak.
    [[nodiscard]] const std::vector<Bytes>& secrets() const noexcept {
        return secrets_;
    }

    /// The device's derived evidence-seal key — what an offline
    /// verifier holds to check sealed postmortem bundles and reports.
    [[nodiscard]] const Bytes& seal_key() const noexcept {
        return seal_key_;
    }

    /// Runs the scenario. `attack` may be null (clean baseline run);
    /// otherwise it is launched at `attack_at` (absolute cycle, should
    /// be >= warmup).
    ScenarioResult run(attack::Attack* attack, sim::Cycle attack_at = 0);

private:
    void pump_peer();
    std::uint64_t count_leaked(const Bytes& frame) const;

    ScenarioConfig cfg_;
    crypto::MerkleSigner vendor_key_;
    std::unique_ptr<Node> node_;
    dev::Nic peer_nic_;
    dev::Link link_;
    std::unique_ptr<net::SecureChannel> peer_channel_;
    std::vector<Bytes> secrets_;
    Bytes seal_key_;
    std::uint64_t leaked_bytes_ = 0;
};

}  // namespace cres::platform
