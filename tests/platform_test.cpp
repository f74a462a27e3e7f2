// Integration tests: full scenarios on the passive baseline vs the
// resilient platform, under the attack library. These validate the
// paper's central claims end to end:
//   - the passive platform leaks, takes physical damage, loses
//     evidence, and at best reboots;
//   - the resilient platform detects, responds, recovers, keeps the
//     critical service alive and preserves a verifiable evidence chain.
#include <gtest/gtest.h>

#include "attack/attacks.h"
#include "boot/image.h"
#include "platform/scenario.h"

namespace cres::platform {
namespace {

ScenarioConfig make_config(bool resilient) {
    ScenarioConfig config;
    config.node.name = resilient ? "resilient0" : "passive0";
    config.node.resilient = resilient;
    config.warmup = 20000;
    config.horizon = 120000;
    config.seed = 7;
    return config;
}

TEST(NodeProvision, BuildsSecurityEngineOnceUnderDerivedSealKey) {
    NodeConfig config;
    config.name = "prov0";
    config.resilient = true;
    Node node(config);
    const isa::Program program = control_loop_program();
    EXPECT_EQ(node.ssm, nullptr);
    EXPECT_THROW(node.arm_resilience(program), PlatformError);

    crypto::Hash256 seed{};
    seed.fill(11);
    const crypto::MerkleSigner vendor(seed, 2);
    const Bytes root = to_bytes("device-root-prov0");
    node.provision(vendor.public_key(), root);
    ASSERT_NE(node.ssm, nullptr);
    EXPECT_THROW(node.provision(vendor.public_key(), root), PlatformError);

    // The evidence log starts under the derived key: one genesis record.
    const Bytes seal_key =
        crypto::hkdf(root, to_bytes(config.name), "evidence-seal", 32);
    const core::EvidenceLog& evidence = node.ssm->evidence();
    EXPECT_EQ(evidence.size(), 1u);
    EXPECT_TRUE(evidence.verify_chain());
    EXPECT_TRUE(core::EvidenceLog::verify_seal(evidence, evidence.seal(),
                                               seal_key));
    EXPECT_TRUE(core::SystemSecurityManager::verify_health_report(
        node.ssm->health_report(), seal_key));

    node.load_and_start(program);
    node.arm_resilience(program);
    node.run(20000);
    EXPECT_GT(node.stats().control_iterations, 0u);
    EXPECT_EQ(node.ssm->health(), core::HealthState::kHealthy);
}

TEST(CleanRun, ResilientServicesRunWithoutFalsePositives) {
    Scenario scenario(make_config(true));
    const ScenarioResult r = scenario.run(nullptr);

    EXPECT_GT(r.control_iterations, 100u);
    EXPECT_GT(r.telemetry_frames, 100u);
    EXPECT_EQ(r.reboots, 0u);
    EXPECT_EQ(r.leaked_bytes, 0u);
    EXPECT_EQ(r.unsafe_commands, 0u);
    // No policy rule should fire on healthy behaviour.
    EXPECT_EQ(r.responses_executed, 0u);
    EXPECT_TRUE(r.evidence_chain_ok);
    EXPECT_EQ(scenario.node().ssm->health(), core::HealthState::kHealthy);
}

TEST(CleanRun, PassiveBaselineRunsTheSameWorkload) {
    Scenario scenario(make_config(false));
    const ScenarioResult r = scenario.run(nullptr);
    EXPECT_GT(r.control_iterations, 100u);
    EXPECT_EQ(r.reboots, 0u);
    EXPECT_EQ(r.leaked_bytes, 0u);
}

TEST(CleanRun, MonitoringOverheadIsBounded) {
    Scenario passive(make_config(false));
    Scenario resilient(make_config(true));
    const auto rp = passive.run(nullptr);
    const auto rr = resilient.run(nullptr);
    // The monitors live beside the pipeline, not in it: the workload
    // must make essentially identical progress.
    const double ratio = static_cast<double>(rr.control_iterations) /
                         static_cast<double>(rp.control_iterations);
    EXPECT_GT(ratio, 0.95);
    EXPECT_LT(ratio, 1.05);
}

TEST(StackSmash, PassiveBaselineIsBreached) {
    Scenario scenario(make_config(false));
    attack::StackSmashAttack attack;
    const ScenarioResult r = scenario.run(&attack, 30000);

    EXPECT_TRUE(r.attack_succeeded);
    EXPECT_GT(r.leaked_bytes, 0u);      // The secret left the device.
    EXPECT_GT(r.unsafe_commands, 0u);   // The plant was abused.
    EXPECT_FALSE(r.detected);
    EXPECT_EQ(r.operator_alerts, 0u);   // Nobody ever knows.
}

TEST(StackSmash, ResilientPlatformContainsAndRecovers) {
    Scenario scenario(make_config(true));
    attack::StackSmashAttack attack;
    const ScenarioResult r = scenario.run(&attack, 30000);

    EXPECT_TRUE(r.detected);
    EXPECT_TRUE(r.responded);
    EXPECT_EQ(r.leaked_bytes, 0u);  // Contained before the frame left.
    EXPECT_GT(r.operator_alerts, 0u);
    EXPECT_TRUE(r.evidence_chain_ok);
    EXPECT_GT(r.attack_window_records, 0u);
    // The critical service kept running (recovered via checkpoint).
    EXPECT_GT(r.control_iterations, 100u);
    ASSERT_TRUE(r.detection_latency.has_value());
    EXPECT_LT(*r.detection_latency, 10000u);
}

TEST(DmaExfil, PassiveLeaksResilientContains) {
    Scenario passive(make_config(false));
    attack::DmaExfilAttack attack_p;
    const auto rp = passive.run(&attack_p, 30000);
    EXPECT_TRUE(attack_p.succeeded());
    EXPECT_GT(rp.leaked_bytes, 0u);
    EXPECT_FALSE(rp.detected);

    Scenario resilient(make_config(true));
    attack::DmaExfilAttack attack_r;
    const auto rr = resilient.run(&attack_r, 30000);
    EXPECT_TRUE(rr.detected);
    EXPECT_LT(rr.leaked_bytes, rp.leaked_bytes);
}

TEST(BusTamper, PassiveLosesKeysResilientCatchesDrift) {
    Scenario passive(make_config(false));
    attack::BusTamperAttack attack_p;
    const auto rp = passive.run(&attack_p, 30000);
    EXPECT_TRUE(attack_p.succeeded());
    EXPECT_GT(attack_p.key_bytes_read(), 0u);
    EXPECT_GT(rp.leaked_bytes, 0u);

    Scenario resilient(make_config(true));
    attack::BusTamperAttack attack_r;
    const auto rr = resilient.run(&attack_r, 30000);
    EXPECT_TRUE(rr.detected);
    // Isolation cuts the read stream short and blocks the exfil frame.
    EXPECT_LT(attack_r.key_bytes_read(), 32u);
    EXPECT_EQ(rr.leaked_bytes, 0u);
    EXPECT_GT(rr.operator_alerts, 0u);
}

TEST(SensorSpoof, ResilientDegradesGracefully) {
    Scenario passive(make_config(false));
    attack::SensorSpoofAttack attack_p;
    const auto rp = passive.run(&attack_p, 30000);
    EXPECT_GT(rp.unsafe_commands, 0u);
    EXPECT_FALSE(rp.detected);

    Scenario resilient(make_config(true));
    attack::SensorSpoofAttack attack_r;
    const auto rr = resilient.run(&attack_r, 30000);
    EXPECT_TRUE(rr.detected);
    EXPECT_GT(rr.operator_alerts, 0u);
    // Active response (rate-limit / degradation) cuts plant abuse.
    EXPECT_LT(rr.unsafe_commands, rp.unsafe_commands);
    // Critical service continued.
    EXPECT_GT(rr.control_iterations, 100u);
}

TEST(TaskHang, PassiveRebootsResilientRestores) {
    Scenario passive(make_config(false));
    attack::TaskHangAttack attack_p;
    const auto rp = passive.run(&attack_p, 30000);
    EXPECT_GE(rp.reboots, 1u);  // Watchdog did its one trick.

    Scenario resilient(make_config(true));
    attack::TaskHangAttack attack_r;
    const auto rr = resilient.run(&attack_r, 30000);
    EXPECT_TRUE(rr.detected);
    // Checkpoint restore brings the task back without a full reboot
    // and with less downtime.
    EXPECT_GT(rr.control_iterations, rp.control_iterations);
    EXPECT_LE(rr.downtime_cycles, rp.downtime_cycles);
}

TEST(Replay, ChannelRejectsAndResilientRecords) {
    Scenario resilient(make_config(true));
    attack::ReplayAttack attack(resilient.link(), /*victim_is_a=*/true);
    const auto r = resilient.run(&attack, 30000);
    EXPECT_TRUE(attack.succeeded());  // The frame reached the victim...
    // ...but the channel rejected it and the monitor recorded it.
    EXPECT_GT(resilient.node().channel->rejected_replay(), 0u);
    EXPECT_GT(r.attack_window_records, 0u);
}

TEST(MitmTamper, StreakEscalatesOnResilient) {
    Scenario resilient(make_config(true));
    attack::MitmTamperAttack attack(resilient.link());
    const auto r = resilient.run(&attack, 30000);
    EXPECT_TRUE(attack.succeeded());
    EXPECT_GT(resilient.node().channel->rejected_tag(), 2u);
    EXPECT_TRUE(r.detected);
}

TEST(Glitch, EnvironmentExcursionDetectedOnlyByResilient) {
    Scenario passive(make_config(false));
    attack::GlitchAttack attack_p(1.0, 500);
    const auto rp = passive.run(&attack_p, 30000);
    EXPECT_FALSE(rp.detected);

    Scenario resilient(make_config(true));
    attack::GlitchAttack attack_r(1.0, 500);
    const auto rr = resilient.run(&attack_r, 30000);
    EXPECT_TRUE(rr.detected);
    EXPECT_GT(rr.operator_alerts, 0u);
}

TEST(BusProbe, ReconnaissanceFlagged) {
    Scenario resilient(make_config(true));
    attack::BusProbeAttack attack;
    const auto r = resilient.run(&attack, 30000);
    EXPECT_TRUE(r.detected);
}

TEST(SsmKill, IsolationDecidesSurvival) {
    // Physically isolated SSM (the paper's design): attack fails and
    // is itself evidenced.
    Scenario isolated(make_config(true));
    attack::SsmKillAttack attack_i;
    (void)isolated.run(&attack_i, 30000);
    EXPECT_FALSE(attack_i.succeeded());
    EXPECT_FALSE(isolated.node().ssm->disabled());
    EXPECT_TRUE(isolated.node().ssm->evidence().verify_chain());
    EXPECT_GT(isolated.node().ssm->evidence().size(), 0u);

    // Shared-resource SSM (TEE-style ablation): the security function
    // dies and takes its evidence with it.
    ScenarioConfig shared_cfg = make_config(true);
    shared_cfg.node.ssm_isolated = false;
    Scenario shared(shared_cfg);
    attack::SsmKillAttack attack_s;
    (void)shared.run(&attack_s, 30000);
    EXPECT_TRUE(attack_s.succeeded());
    EXPECT_TRUE(shared.node().ssm->disabled());
    EXPECT_EQ(shared.node().ssm->evidence().size(), 0u);
}

TEST(Evidence, SurvivesOnResilientDiesOnPassive) {
    // Passive: breach then watchdog-reboot wipes the volatile recorder.
    Scenario passive(make_config(false));
    attack::TaskHangAttack hang;
    const auto rp = passive.run(&hang, 30000);
    EXPECT_GE(rp.reboots, 1u);
    // Records from before the reboot are gone; the restarted task's
    // heartbeats are all that is left.
    EXPECT_GT(rp.evidence_records, 0u);
    bool pre_attack_record = false;
    passive.node().recorder.for_each([&](const obs::FlightRecord& record) {
        if (record.at < 30000) pre_attack_record = true;
    });
    EXPECT_FALSE(pre_attack_record);

    // Resilient: the full pre/post-attack evidence stream survives and
    // verifies.
    Scenario resilient(make_config(true));
    attack::StackSmashAttack smash;
    const auto rr = resilient.run(&smash, 30000);
    EXPECT_TRUE(rr.evidence_chain_ok);
    bool pre = false, post = false;
    for (const auto& record : resilient.node().ssm->evidence().records()) {
        if (record.at < 30000) pre = true;
        if (record.at >= 30000) post = true;
    }
    EXPECT_TRUE(pre);
    EXPECT_TRUE(post);
    const auto seal = resilient.node().ssm->evidence().seal();
    EXPECT_TRUE(core::EvidenceLog::verify_seal(
        resilient.node().ssm->evidence(), seal,
        crypto::hkdf(to_bytes(""), {}, "", 32)) == false);  // Wrong key.
}

// --- Volatile telemetry: the passive node's flight recorder -------------

/// A node provisioned and secure-booted into the signed control loop.
std::unique_ptr<Node> booted_node(NodeConfig config) {
    crypto::Hash256 seed{};
    seed.fill(21);
    crypto::MerkleSigner vendor(seed, 2);
    auto node = std::make_unique<Node>(std::move(config));
    node->provision(vendor.public_key(), to_bytes("device-root-telemetry"));

    const isa::Program program = control_loop_program();
    boot::FirmwareImage image;
    image.name = "control-fw";
    image.security_version = 1;
    image.load_addr = program.origin;
    image.entry_point = program.symbol("start");
    image.payload = program.code;
    boot::ImageSigner(vendor).sign(image);
    EXPECT_TRUE(node->secure_boot({image}).success);
    node->arm_resilience(program);
    return node;
}

std::size_t count_kind(const obs::FlightRecorder& recorder,
                       std::string_view kind) {
    std::size_t n = 0;
    recorder.for_each([&](const obs::FlightRecord& record) {
        if (recorder.name(record.kind) == kind) ++n;
    });
    return n;
}

TEST(VolatileTelemetry, PassiveRecorderHoldsHeartbeatsUntilWatchdogReboot) {
    NodeConfig config;
    config.name = "passive-telemetry";
    auto node = booted_node(config);
    EXPECT_EQ(count_kind(node->recorder, "image-verified"), 1u);
    EXPECT_EQ(count_kind(node->recorder, "boot-ok"), 1u);

    node->run(20000);
    const std::size_t heartbeats = count_kind(node->recorder, "heartbeat");
    EXPECT_GT(heartbeats, 0u);
    EXPECT_EQ(heartbeats, node->stats().control_iterations);
    EXPECT_EQ(node->recorder.size(), heartbeats + 2);

    // Hang the control task: the watchdog expires, and its reboot wipes
    // the ring, the reboot record included.
    attack::TaskHangAttack hang;
    hang.launch(*node, node->sim.now());
    for (int i = 0; i < 200 && node->stats().reboots == 0; ++i) {
        node->run(100);
    }
    ASSERT_EQ(node->stats().reboots, 1u);
    EXPECT_TRUE(node->recorder.empty());

    // Past the downtime the chain re-verifies and heartbeats resume.
    const sim::Cycle wiped_at = node->sim.now();
    node->run(20000);
    EXPECT_EQ(count_kind(node->recorder, "image-verified"), 1u);
    EXPECT_GT(count_kind(node->recorder, "heartbeat"), 0u);
    node->recorder.for_each([&](const obs::FlightRecord& record) {
        EXPECT_GT(record.at, wiped_at);
    });
}

TEST(VolatileTelemetry, ResilientRecorderHasNoHeartbeatsAndSurvivesReboot) {
    NodeConfig config;
    config.name = "resilient-telemetry";
    config.resilient = true;
    auto node = booted_node(config);
    node->run(20000);
    EXPECT_GT(node->stats().control_iterations, 0u);
    node->reboot("maintenance");
    node->run(config.reboot_downtime + 10000);

    // A second reboot adds its record and wipes nothing: the first
    // reboot's record and the monitor records since are still there.
    const std::size_t before = node->recorder.size();
    ASSERT_GT(before, 1u);
    node->reboot("maintenance");
    EXPECT_EQ(node->recorder.size(), before + 1);
    EXPECT_EQ(count_kind(node->recorder, "reboot"), node->stats().reboots);
    EXPECT_EQ(node->stats().reboots, 2u);
    for (const std::string_view kind :
         {"heartbeat", "boot-ok", "boot-fail", "image-verified"}) {
        EXPECT_EQ(count_kind(node->recorder, kind), 0u) << kind;
    }
}

TEST(VolatileTelemetry, ZeroCapacityPassiveNodeRecordsNothing) {
    NodeConfig config;
    config.name = "passive-dark";
    config.flight_recorder_capacity = 0;
    auto node = booted_node(config);
    node->run(20000);
    node->reboot("maintenance");
    node->run(config.reboot_downtime + 10000);

    EXPECT_GT(node->stats().control_iterations, 0u);
    EXPECT_TRUE(node->recorder.empty());
    EXPECT_EQ(node->recorder.total_emitted(), 0u);
    EXPECT_EQ(node->recorder.allocated(), 0u);
    EXPECT_TRUE(node->recorder.names().empty());
}

TEST(FirmwareDowngrade, UpdateAgentBlocksRuntimeDowngrade) {
    Scenario scenario(make_config(true));
    auto& node = scenario.node();

    // Vendor ships and commits v5 first.
    crypto::Hash256 seed{};
    seed.fill(9);
    crypto::MerkleSigner vendor(seed, 4);
    // Re-provision the node against this vendor key for the test.
    node.update_agent = std::make_unique<boot::UpdateAgent>(
        vendor.public_key(), node.counters);

    auto make_image = [&vendor](std::uint32_t version) {
        boot::FirmwareImage image;
        image.name = "fw";
        image.security_version = version;
        image.load_addr = kCodeBase;
        image.entry_point = kCodeBase;
        image.payload = Bytes(64, static_cast<std::uint8_t>(version));
        boot::ImageSigner signer(vendor);
        signer.sign(image);
        return image.serialize();
    };
    ASSERT_EQ(node.update_agent->install(make_image(5)),
              boot::UpdateStatus::kOk);
    ASSERT_TRUE(node.update_agent->activate());
    node.update_agent->commit();

    attack::FirmwareDowngradeAttack attack(make_image(3));
    (void)scenario.run(&attack, 30000);
    EXPECT_FALSE(attack.succeeded());
    EXPECT_EQ(node.update_agent->active_image()->security_version, 5u);
}

}  // namespace
}  // namespace cres::platform
