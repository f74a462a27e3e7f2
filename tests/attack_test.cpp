// Attack-library tests: each attack's mechanics, ground-truth
// accounting, and the specific monitor that catches it.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string_view>

#include "attack/attacks.h"
#include "platform/scenario.h"

namespace cres::attack {
namespace {

/// True when the SSM sealed a policy decision on an event whose
/// formatted detail ("monitor/category/severity resource: ...")
/// contains `tag`. A decision record follows the "event" record of the
/// event it was made on.
bool decided_on(const core::EvidenceLog& log, std::string_view tag) {
    std::string_view last_event;
    for (const auto& record : log.records()) {
        if (record.kind == "event") last_event = record.detail;
        if (record.kind == "decision" &&
            last_event.find(tag) != std::string_view::npos) {
            return true;
        }
    }
    return false;
}

platform::ScenarioConfig quick_config(bool resilient, std::uint64_t seed) {
    platform::ScenarioConfig config;
    config.node.name = "t";
    config.node.resilient = resilient;
    config.warmup = 15000;
    config.horizon = 90000;
    config.seed = seed;
    return config;
}

TEST(AttackMeta, NamesAndMechanismsNonEmpty) {
    platform::Scenario s(quick_config(false, 1));
    std::vector<std::unique_ptr<Attack>> attacks;
    attacks.push_back(std::make_unique<StackSmashAttack>());
    attacks.push_back(std::make_unique<CodeInjectionAttack>());
    attacks.push_back(std::make_unique<DmaExfilAttack>());
    attacks.push_back(std::make_unique<BusTamperAttack>());
    attacks.push_back(std::make_unique<SensorSpoofAttack>());
    attacks.push_back(std::make_unique<ReplayAttack>(s.link(), true));
    attacks.push_back(std::make_unique<MitmTamperAttack>(s.link()));
    attacks.push_back(std::make_unique<TaskHangAttack>());
    attacks.push_back(std::make_unique<GlitchAttack>());
    attacks.push_back(std::make_unique<SsmKillAttack>());
    attacks.push_back(std::make_unique<BusProbeAttack>());
    for (const auto& a : attacks) {
        EXPECT_FALSE(a->name().empty());
        EXPECT_FALSE(a->mechanism().empty());
        EXPECT_FALSE(a->succeeded());  // Nothing launched yet.
    }
}

TEST(StackSmashMechanics, PivotsPcIntoGadgetOnPassive) {
    platform::Scenario scenario(quick_config(false, 3));
    StackSmashAttack attack;
    (void)scenario.run(&attack, 20000);
    EXPECT_TRUE(attack.succeeded());
    // The pc sits inside the gadget's spam loop at the end.
    const mem::Addr pc = scenario.node().cpu.pc();
    EXPECT_GE(pc, platform::gadget_origin());
    EXPECT_LT(pc, platform::gadget_origin() + 0x200);
}

TEST(StackSmashMechanics, GadgetKeepsWatchdogFed) {
    platform::Scenario scenario(quick_config(false, 3));
    StackSmashAttack attack;
    const auto r = scenario.run(&attack, 20000);
    // The gadget kicks the watchdog: the passive platform never reboots
    // and so never even gets its one passive countermeasure.
    EXPECT_EQ(r.reboots, 0u);
}

TEST(CodeInjectionMechanics, MemoryMonitorSeesTextWrite) {
    platform::Scenario scenario(quick_config(true, 4));
    CodeInjectionAttack attack;
    (void)scenario.run(&attack, 20000);
    // The injected jump lands in the protected text range.
    EXPECT_TRUE(
        decided_on(scenario.node().ssm->evidence(), "/memory/critical "));
}

TEST(DmaExfilMechanics, TransfersSecretOnPassive) {
    platform::Scenario scenario(quick_config(false, 5));
    DmaExfilAttack attack;
    (void)scenario.run(&attack, 20000);
    EXPECT_TRUE(attack.succeeded());
    EXPECT_GE(scenario.node().dma.bytes_transferred(),
              platform::kSecretSize);
}

TEST(DmaExfilMechanics, IsolationStopsTransferOnResilient) {
    platform::Scenario scenario(quick_config(true, 5));
    DmaExfilAttack attack;
    const auto r = scenario.run(&attack, 20000);
    EXPECT_TRUE(r.detected);
    // The NIC region got fenced before the staged frame was flushed.
    EXPECT_EQ(r.leaked_bytes, 0u);
}

TEST(BusTamperMechanics, ConfigMonitorCatchesDrift) {
    platform::Scenario scenario(quick_config(true, 6));
    BusTamperAttack attack;
    (void)scenario.run(&attack, 20000);
    EXPECT_GE(scenario.node().config_monitor->drifts_detected(), 1u);
}

TEST(BusTamperMechanics, PassiveReadsWholeKey) {
    platform::Scenario scenario(quick_config(false, 6));
    BusTamperAttack attack;
    (void)scenario.run(&attack, 20000);
    EXPECT_EQ(attack.key_bytes_read(), 32u);
}

TEST(SensorSpoofMechanics, TruthUnchanged) {
    platform::Scenario scenario(quick_config(false, 7));
    SensorSpoofAttack attack(500.0);
    (void)scenario.run(&attack, 20000);
    EXPECT_TRUE(scenario.node().sensor.spoofed());
    // The physical truth is still nominal; only the reading lies.
    EXPECT_NEAR(scenario.node().sensor.truth(50000), 50.0, 3.0);
    EXPECT_NEAR(scenario.node().sensor.value(), 500.0, 1.0);
}

TEST(GlitchMechanics, TransientAndDetected) {
    platform::Scenario scenario(quick_config(true, 8));
    GlitchAttack attack(0.9, 300);
    const auto r = scenario.run(&attack, 20000);
    EXPECT_TRUE(r.detected);
    // Voltage is back to nominal at the end.
    EXPECT_NEAR(scenario.node().power.voltage(), 3.3, 0.01);
    EXPECT_GE(scenario.node().environment_monitor->excursions(), 1u);
}

TEST(TaskHangMechanics, TimingMonitorCountsMiss) {
    platform::Scenario scenario(quick_config(true, 9));
    TaskHangAttack attack;
    (void)scenario.run(&attack, 20000);
    EXPECT_GE(scenario.node().timing_monitor->missed_deadlines(
                  "control-loop"),
              1u);
}

TEST(ReplayMechanics, VictimSelectsCorrectDirection) {
    platform::Scenario scenario(quick_config(true, 10));
    ReplayAttack attack(scenario.link(), /*victim_is_a=*/true);
    (void)scenario.run(&attack, 20000);
    EXPECT_TRUE(attack.succeeded());
    // The attack hammers the captured frame three times (one stale
    // frame is advisory-grade; the burst is what raises the alert).
    EXPECT_EQ(scenario.node().channel->rejected_replay(), 3u);
}

TEST(MitmMechanics, StopRestoresCleanTraffic) {
    platform::Scenario scenario(quick_config(false, 11));
    auto& node = scenario.node();
    MitmTamperAttack attack(scenario.link());
    attack.launch(node, 100);
    node.run(200);

    // While the tap is live, frames arrive modified.
    scenario.peer_nic().send_frame(Bytes(20, 0xaa));
    const auto tampered_frame = node.nic.receive_frame();
    ASSERT_TRUE(tampered_frame.has_value());
    EXPECT_NE((*tampered_frame)[12], 0xaa);
    EXPECT_TRUE(attack.succeeded());

    attack.stop();
    scenario.peer_nic().send_frame(Bytes(20, 0xaa));
    const auto clean_frame = node.nic.receive_frame();
    ASSERT_TRUE(clean_frame.has_value());
    EXPECT_EQ((*clean_frame)[12], 0xaa);
}

TEST(BusProbeMechanics, GeneratesDecodeErrors) {
    platform::Scenario scenario(quick_config(true, 12));
    BusProbeAttack attack;
    (void)scenario.run(&attack, 20000);
    EXPECT_TRUE(decided_on(scenario.node().ssm->evidence(), "/bus-violation/"));
}

TEST(SsmKillMechanics, IsolatedAttemptLeavesEvidence) {
    platform::Scenario scenario(quick_config(true, 13));
    SsmKillAttack attack;
    (void)scenario.run(&attack, 20000);
    EXPECT_FALSE(attack.succeeded());
    bool evidenced = false;
    for (const auto& r : scenario.node().ssm->evidence().records()) {
        if (r.detail.find("compromise attempt") != std::string::npos) {
            evidenced = true;
        }
    }
    EXPECT_TRUE(evidenced);
}

// Property sweep: the resilient platform detects the full attack board
// across seeds (no flaky blind spots).
class DetectionSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(DetectionSweep, ResilientDetects) {
    const auto [attack_id, seed] = GetParam();
    platform::Scenario scenario(quick_config(true, seed));
    std::unique_ptr<Attack> attack;
    switch (attack_id) {
        case 0: attack = std::make_unique<StackSmashAttack>(); break;
        case 1: attack = std::make_unique<DmaExfilAttack>(); break;
        case 2: attack = std::make_unique<BusTamperAttack>(); break;
        case 3: attack = std::make_unique<SensorSpoofAttack>(); break;
        case 4: attack = std::make_unique<TaskHangAttack>(); break;
        default: attack = std::make_unique<GlitchAttack>(); break;
    }
    const auto r = scenario.run(attack.get(), 20000);
    EXPECT_TRUE(r.detected) << "attack_id=" << attack_id;
    EXPECT_TRUE(r.evidence_chain_ok);
}

INSTANTIATE_TEST_SUITE_P(
    Board, DetectionSweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(201, 202, 203)));

// E3's per-seed results for the two plant attacks, on bench_detection's
// setup (seeds 100..104, launch at 30000 + 137 * i). The sensor and the
// power sensor derive their state from the clock; these pin the read
// phase (docs/SCHEDULER.md) through the whole node: the spoofed sample
// the peripheral monitor first sees, and the glitch it polls.
struct E3Pin {
    sim::Cycle latency;
    std::size_t evidence_records;
};

void expect_e3_pins(const std::function<std::unique_ptr<Attack>()>& make,
                    const std::array<E3Pin, 5>& pins) {
    for (std::size_t i = 0; i < pins.size(); ++i) {
        platform::ScenarioConfig config;
        config.node.name = "det";
        config.node.resilient = true;
        config.warmup = 20000;
        config.horizon = 100000;
        config.seed = 100 + i;
        platform::Scenario scenario(config);
        const auto attack = make();
        const auto r = scenario.run(attack.get(), 30000 + 137 * i);
        ASSERT_TRUE(r.detection_latency.has_value()) << "seed " << 100 + i;
        EXPECT_EQ(*r.detection_latency, pins[i].latency) << "seed " << 100 + i;
        EXPECT_EQ(r.evidence_records, pins[i].evidence_records)
            << "seed " << 100 + i;
    }
}

TEST(E3Pins, SensorSpoofPerSeed) {
    expect_e3_pins([] { return std::make_unique<SensorSpoofAttack>(); },
                   {{{300, 1168}, {263, 1167}, {146, 1166}, {289, 1149},
                     {252, 1148}}});
}

TEST(E3Pins, GlitchPerSeed) {
    expect_e3_pins([] { return std::make_unique<GlitchAttack>(); },
                   {{{50, 7}, {13, 7}, {26, 7}, {39, 7}, {2, 7}}});
}

}  // namespace
}  // namespace cres::attack
