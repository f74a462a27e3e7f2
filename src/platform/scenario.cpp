#include "platform/scenario.h"

#include "attack/attack.h"  // Interface only; no link dependency.
#include "crypto/sha256.h"
#include "util/rng.h"

namespace cres::platform {

namespace {

crypto::Hash256 vendor_seed(std::uint64_t seed) {
    Bytes s(8);
    for (int i = 0; i < 8; ++i) {
        s[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(seed >> (8 * i));
    }
    return crypto::sha256(s);
}

}  // namespace

Scenario::Scenario(ScenarioConfig config)
    : cfg_(std::move(config)),
      vendor_key_(vendor_seed(cfg_.seed), 4),
      peer_nic_("peer-nic") {
    cfg_.node.seed = cfg_.seed;
    node_ = std::make_unique<Node>(cfg_.node);

    link_.attach(node_->nic, peer_nic_);

    // Factory provisioning.
    Rng rng(cfg_.seed ^ 0xdeu);
    const Bytes device_root = rng.bytes(32);
    node_->provision(vendor_key_.public_key(), device_root);

    // The operator side shares the derived channel key.
    const Bytes channel_key = crypto::hkdf(
        device_root, to_bytes(cfg_.node.name), "m2m-channel", 32);
    peer_channel_ =
        std::make_unique<net::SecureChannel>(peer_nic_, channel_key);

    // Plant the application secret (e.g. customer data / credentials).
    Bytes secret = rng.bytes(kSecretSize);
    node_->app_ram.load(kSecretBase - kAppRamBase, secret);
    secrets_.push_back(std::move(secret));
    // The attestation key is also leak-relevant (bus-tamper target).
    secrets_.push_back(crypto::hkdf(device_root, to_bytes(cfg_.node.name),
                                    "attestation", 32));
    seal_key_ = crypto::hkdf(device_root, to_bytes(cfg_.node.name),
                             "evidence-seal", 32);

    // Start the workload and arm the defence.
    const isa::Program program = control_loop_program(cfg_.workload);
    node_->load_and_start(program);
    node_->arm_resilience(program);
}

Scenario::~Scenario() = default;

std::uint64_t Scenario::count_leaked(const Bytes& frame) const {
    // A frame counts as leakage if it contains any 8-byte window of a
    // protected secret; the whole frame is then attributed.
    constexpr std::size_t kWindow = 8;
    for (const Bytes& secret : secrets_) {
        if (secret.size() < kWindow) continue;
        for (std::size_t off = 0; off + kWindow <= secret.size();
             off += kWindow) {
            const auto begin = secret.begin() + static_cast<std::ptrdiff_t>(off);
            const auto it = std::search(frame.begin(), frame.end(), begin,
                                        begin + kWindow);
            if (it != frame.end()) return frame.size();
        }
    }
    return 0;
}

void Scenario::pump_peer() {
    // Operator side: drain telemetry and leaked frames, send a periodic
    // command, feed the node's channel poll loop.
    node_->sim.schedule_in(500, "peer-pump", [this] {
        // Everything arriving at the peer is "on the wire".
        while (auto frame = peer_nic_.receive_frame()) {
            leaked_bytes_ += count_leaked(*frame);
        }
        // Device side demuxes its NIC (attestation + channel traffic).
        node_->pump_network();
        pump_peer();
    });
}

ScenarioResult Scenario::run(attack::Attack* attack, sim::Cycle attack_at) {
    pump_peer();

    // Operator command traffic every 2000 cycles (replay/MITM fodder).
    std::function<void()> send_command = [this, &send_command] {
        peer_channel_->send(to_bytes("setpoint"));
        node_->sim.schedule_in(2000, "operator-command", send_command);
    };
    node_->sim.schedule_in(1000, "operator-command", send_command);

    node_->run(cfg_.warmup);
    node_->take_checkpoint();

    const sim::Cycle t_attack =
        attack != nullptr ? std::max(attack_at, node_->sim.now()) : 0;
    if (attack != nullptr) {
        attack->launch(*node_, t_attack);
    }

    node_->run(cfg_.horizon > node_->sim.now()
                   ? cfg_.horizon - node_->sim.now()
                   : 0);

    // Final wire drain.
    while (auto frame = peer_nic_.receive_frame()) {
        leaked_bytes_ += count_leaked(*frame);
    }

    ScenarioResult result;
    result.control_iterations = node_->stats().control_iterations;
    result.telemetry_frames = node_->stats().telemetry_frames;
    result.reboots = node_->stats().reboots;
    result.downtime_cycles = node_->stats().downtime_cycles;
    result.leaked_bytes = leaked_bytes_;

    result.unsafe_commands = node_->actuator.unsafe_commands();
    result.actuator_travel = node_->actuator.total_travel();

    if (node_->ssm) {
        // Detection is the first policy decision the SSM sealed at or
        // after the attack (decisions are stamped with their dispatch
        // cycle, so they appear in cycle order).
        for (const auto& record : node_->ssm->evidence().records()) {
            if (record.at < t_attack) continue;
            if (attack != nullptr) ++result.attack_window_records;
            if (record.kind == "decision" && !result.detected) {
                result.detected = true;
                result.detection_latency = record.at - t_attack;
            }
        }
        result.responded =
            node_->response_manager && node_->response_manager->total() > 0;
        result.responses_executed =
            node_->response_manager ? node_->response_manager->total() : 0;
        result.evidence_records = node_->ssm->evidence().size();
        result.evidence_chain_ok = node_->ssm->evidence().verify_chain();
    } else {
        // Passive platform: its "evidence" is the volatile recorder.
        result.evidence_records = node_->recorder.size();
        result.evidence_chain_ok = false;  // No integrity protection at all.
        node_->recorder.for_each([&](const obs::FlightRecord& record) {
            if (attack != nullptr && record.at >= t_attack) {
                ++result.attack_window_records;
            }
        });
    }
    result.operator_alerts = node_->stats().operator_alerts;
    result.attack_succeeded = attack != nullptr && attack->succeeded();
    return result;
}

}  // namespace cres::platform
