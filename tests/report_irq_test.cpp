// Tests for the interrupt-driven workload and the incident-report
// generator.
#include <gtest/gtest.h>

#include "attack/attacks.h"
#include "core/ssm/report.h"
#include "platform/scenario.h"
#include "platform/workload.h"

namespace cres {
namespace {

TEST(IrqWorkload, TimerPacedControlLoopRuns) {
    platform::NodeConfig config;
    config.resilient = false;
    platform::Node node(config);
    const isa::Program p = platform::interrupt_control_loop_program(
        platform::ControlLoopOptions{}, 800);
    node.load_and_start(p);
    node.run(50000);

    // ~1 iteration per 800-cycle timer period.
    EXPECT_GT(node.stats().control_iterations, 40u);
    EXPECT_LT(node.stats().control_iterations, 80u);
    EXPECT_GT(node.actuator.command_count(), 40u);
    // The core actually sleeps between interrupts.
    EXPECT_GT(node.timer.matches(), 40u);
}

TEST(IrqWorkload, PeriodControlsRate) {
    auto iterations_at_period = [](std::uint32_t period) {
        platform::NodeConfig config;
        config.resilient = false;
        platform::Node node(config);
        node.load_and_start(platform::interrupt_control_loop_program(
            platform::ControlLoopOptions{}, period));
        node.run(40000);
        return node.stats().control_iterations;
    };
    const auto fast = iterations_at_period(400);
    const auto slow = iterations_at_period(1600);
    EXPECT_GT(fast, 3 * slow / 2);  // Roughly 4x, allow slack.
}

TEST(IrqWorkload, ResilientStackCoversIrqVariant) {
    platform::NodeConfig config;
    config.name = "irq-node";
    config.resilient = true;
    platform::Node node(config);
    crypto::Hash256 seed{};
    seed.fill(6);
    const crypto::MerkleSigner vendor(seed, 2);
    node.provision(vendor.public_key(), to_bytes("root"));
    const isa::Program p = platform::interrupt_control_loop_program();
    node.load_and_start(p);
    node.arm_resilience(p);
    node.run(30000);
    node.take_checkpoint();
    const auto decisions = [&node] {
        return core::generate_incident_report(node.ssm->evidence(), "irq-node")
            .decisions;
    };

    // No false positives from interrupt-driven control.
    EXPECT_EQ(decisions(), 0u);
    EXPECT_GT(node.stats().control_iterations, 20u);

    // A hang is detected and recovered exactly as in the polled variant.
    node.cpu.halt();
    node.run(20000);
    EXPECT_GE(node.recovery->restores(), 1u);
    EXPECT_GT(decisions(), 0u);
}

TEST(IncidentReport, CleanLogReportsNoIncident) {
    core::EvidenceLog log(to_bytes("k"));
    log.append(0, "state", "ssm online");
    const auto report = core::generate_incident_report(log, "dev0");
    EXPECT_TRUE(report.integrity_ok);
    EXPECT_EQ(report.first_alert, 0u);
    EXPECT_TRUE(report.indicators.empty());
    const std::string text = report.render();
    EXPECT_NE(text.find("VERIFIED"), std::string::npos);
    EXPECT_NE(text.find("none (no incident indicators)"), std::string::npos);
}

TEST(IncidentReport, BreachProducesActionableReport) {
    platform::ScenarioConfig config;
    config.node.name = "rpt";
    config.node.resilient = true;
    config.warmup = 15000;
    config.horizon = 80000;
    config.seed = 81;
    platform::Scenario scenario(config);
    attack::StackSmashAttack attack;
    (void)scenario.run(&attack, 20000);

    const auto report = core::generate_incident_report(
        scenario.node().ssm->evidence(), "rpt");
    EXPECT_TRUE(report.integrity_ok);
    EXPECT_GT(report.first_alert, 0u);
    EXPECT_FALSE(report.indicators.empty());
    EXPECT_FALSE(report.responses.empty());
    EXPECT_GT(report.actions, 0u);

    const std::string text = report.render();
    EXPECT_NE(text.find("INCIDENT REPORT: rpt"), std::string::npos);
    EXPECT_NE(text.find("attack indicators"), std::string::npos);
    EXPECT_NE(text.find("countermeasures executed"), std::string::npos);
}

TEST(IncidentReport, TamperedLogFlagsIntegrity) {
    core::EvidenceLog log(to_bytes("k"));
    log.append(1, "event", "monitor/x/critical y: breach");
    log.append(2, "action", "isolate: done");
    log.tamper_detail(0, "nothing happened");
    const auto report = core::generate_incident_report(log, "dev0");
    EXPECT_FALSE(report.integrity_ok);
    EXPECT_NE(report.render().find("NOT trustworthy"), std::string::npos);
}

}  // namespace
}  // namespace cres
