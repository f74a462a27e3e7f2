// SSM-side tests: evidence log chain/seal, risk register, policy DSL,
// the security manager's detect->respond->recover flow, isolation
// ablation, response manager actions, recovery and degradation.
#include <gtest/gtest.h>

#include "core/registry.h"
#include "core/response/response.h"
#include "core/ssm/ssm.h"
#include "isa/assembler.h"
#include "mem/ram.h"
#include "util/error.h"

namespace cres::core {
namespace {

Bytes key() { return to_bytes("evidence-seal-key"); }

MonitorEvent event(sim::Cycle at, EventCategory category,
                   EventSeverity severity, std::string resource = "res",
                   std::string detail = "detail") {
    return MonitorEvent{at, "test-monitor", category, severity,
                        std::move(resource), std::move(detail), 0, 0,
                        std::nullopt};
}

/// Cycles of the sealed "decision" records: one per fired rule,
/// stamped with the poll that dispatched it.
std::vector<sim::Cycle> decision_cycles(const EvidenceLog& log) {
    std::vector<sim::Cycle> cycles;
    for (const EvidenceRecord& record : log.records()) {
        if (record.kind == "decision") cycles.push_back(record.at);
    }
    return cycles;
}

TEST(Evidence, ChainVerifies) {
    EvidenceLog log(key());
    log.append(1, "event", "first");
    log.append(2, "event", "second", Bytes{1, 2, 3});
    log.append(3, "action", "isolated");
    EXPECT_EQ(log.size(), 3u);
    EXPECT_TRUE(log.verify_chain());
}

TEST(Evidence, EmptyChainVerifies) {
    EvidenceLog log(key());
    EXPECT_TRUE(log.verify_chain());
    EXPECT_EQ(log.head(), crypto::Hash256{});
}

TEST(Evidence, TamperBreaksChain) {
    EvidenceLog log(key());
    log.append(1, "event", "breach observed");
    log.append(2, "event", "exfil observed");
    log.tamper_detail(0, "nothing happened here");
    EXPECT_FALSE(log.verify_chain());
}

TEST(Evidence, SealDetectsTruncation) {
    EvidenceLog log(key());
    log.append(1, "event", "a");
    log.append(2, "event", "b");
    const EvidenceSeal seal = log.seal();
    EXPECT_TRUE(EvidenceLog::verify_seal(log, seal, key()));

    EvidenceLog shorter(key());
    shorter.append(1, "event", "a");
    EXPECT_FALSE(EvidenceLog::verify_seal(shorter, seal, key()));
}

TEST(Evidence, SealDetectsWipe) {
    EvidenceLog log(key());
    log.append(1, "event", "breach");
    const EvidenceSeal seal = log.seal();
    log.wipe();
    EXPECT_FALSE(EvidenceLog::verify_seal(log, seal, key()));
}

TEST(Evidence, SealWithWrongKeyRejected) {
    EvidenceLog log(key());
    log.append(1, "event", "a");
    const EvidenceSeal seal = log.seal();
    EXPECT_FALSE(EvidenceLog::verify_seal(log, seal, to_bytes("other")));
}

TEST(Evidence, AppendAfterSealStillVerifies) {
    // The seal pins a prefix; honest appends extend past it.
    EvidenceLog log(key());
    log.append(1, "event", "a");
    const EvidenceSeal seal = log.seal();
    log.append(2, "event", "b");
    EXPECT_TRUE(EvidenceLog::verify_seal(log, seal, key()));
}

TEST(Evidence, EmptyKeyRejected) {
    EXPECT_THROW(EvidenceLog(Bytes{}), Error);
}

TEST(Risk, ScoreGrowsWithIncidents) {
    RiskRegister risks;
    risks.add_asset("actuator", AssetKind::kPeripheral, 5, 2);
    const double base = risks.risk_score("actuator");
    risks.record_incident("actuator");
    risks.record_incident("actuator");
    EXPECT_GT(risks.risk_score("actuator"), base);
}

TEST(Risk, UnknownResourceAutoRegistered) {
    RiskRegister risks;
    risks.record_incident("mystery");
    EXPECT_TRUE(risks.contains("mystery"));
    EXPECT_GT(risks.risk_score("mystery"), 0.0);
}

TEST(Risk, RankedOrdersByScore) {
    RiskRegister risks;
    risks.add_asset("low", AssetKind::kTask, 1, 1);
    risks.add_asset("high", AssetKind::kKey, 5, 5);
    const auto ranked = risks.ranked();
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].name, "high");
}

TEST(Risk, ScoresClamped) {
    RiskRegister risks;
    risks.add_asset("a", AssetKind::kTask, 99, 0);
    EXPECT_EQ(risks.assets().at("a").criticality, 5u);
    EXPECT_EQ(risks.assets().at("a").exposure, 1u);
}

TEST(Policy, DslParsesRules) {
    const PolicyEngine engine = PolicyEngine::parse(R"(
; comment
rule cfi-hijack: category=control-flow severity>=critical -> kill-task, restart-task
rule exfil: category=data-flow count=2 window=5000 -> isolate-resource
rule anything-critical: severity>=critical -> alert-operator
)");
    EXPECT_EQ(engine.size(), 3u);
    EXPECT_EQ(engine.rules()[0].name, "cfi-hijack");
    EXPECT_EQ(engine.rules()[0].actions.size(), 2u);
    EXPECT_EQ(engine.rules()[1].threshold, 2u);
    EXPECT_EQ(engine.rules()[1].window, 5000u);
    EXPECT_FALSE(engine.rules()[2].category.has_value());
}

TEST(Policy, DslRejectsBadInput) {
    EXPECT_THROW(PolicyEngine::parse("rule x: severity>=alert\n"),
                 PolicyError);  // No '->'.
    EXPECT_THROW(PolicyEngine::parse("rule x: -> frobnicate\n"), PolicyError);
    EXPECT_THROW(PolicyEngine::parse("rule x: category=nope -> kill-task\n"),
                 PolicyError);
    EXPECT_THROW(PolicyEngine::parse("rule x: severity>=extreme -> kill-task\n"),
                 PolicyError);
    EXPECT_THROW(PolicyEngine::parse("bogus line -> kill-task\n"),
                 PolicyError);
    EXPECT_THROW(PolicyEngine::parse("rule x: count=abc -> kill-task\n"),
                 PolicyError);
    EXPECT_THROW(PolicyEngine::parse("rule x: window=zz -> kill-task\n"),
                 PolicyError);
}

TEST(Policy, MatchingRespectsConditions) {
    PolicyRule rule;
    rule.name = "r";
    rule.category = EventCategory::kControlFlow;
    rule.min_severity = EventSeverity::kAlert;
    rule.resource_prefix = "cpu*";
    rule.actions = {ResponseAction::kKillTask};

    EXPECT_TRUE(rule.matches(event(0, EventCategory::kControlFlow,
                                   EventSeverity::kCritical, "cpu0")));
    EXPECT_FALSE(rule.matches(event(0, EventCategory::kMemory,
                                    EventSeverity::kCritical, "cpu0")));
    EXPECT_FALSE(rule.matches(event(0, EventCategory::kControlFlow,
                                    EventSeverity::kInfo, "cpu0")));
    EXPECT_FALSE(rule.matches(event(0, EventCategory::kControlFlow,
                                    EventSeverity::kCritical, "dma0")));
}

TEST(Policy, ExactResourceMatch) {
    PolicyRule rule;
    rule.name = "r";
    rule.resource_prefix = "nic0";
    rule.actions = {ResponseAction::kLogOnly};
    EXPECT_TRUE(rule.matches(event(0, EventCategory::kNetwork,
                                   EventSeverity::kAlert, "nic0")));
    EXPECT_FALSE(rule.matches(event(0, EventCategory::kNetwork,
                                    EventSeverity::kAlert, "nic01")));
}

TEST(Policy, WindowedThreshold) {
    PolicyEngine engine;
    PolicyRule rule;
    rule.name = "burst";
    rule.threshold = 3;
    rule.window = 100;
    rule.min_severity = EventSeverity::kAdvisory;
    rule.actions = {ResponseAction::kIsolateResource};
    engine.add_rule(rule);

    EXPECT_TRUE(engine.evaluate(
        event(10, EventCategory::kMemory, EventSeverity::kAlert)).empty());
    EXPECT_TRUE(engine.evaluate(
        event(20, EventCategory::kMemory, EventSeverity::kAlert)).empty());
    // Third within the window fires.
    EXPECT_EQ(engine.evaluate(
        event(30, EventCategory::kMemory, EventSeverity::kAlert)).size(), 1u);
    // Counter cleared after firing.
    EXPECT_TRUE(engine.evaluate(
        event(40, EventCategory::kMemory, EventSeverity::kAlert)).empty());
}

TEST(Policy, WindowExpiryForgetsOldEvents) {
    PolicyEngine engine;
    PolicyRule rule;
    rule.name = "burst";
    rule.threshold = 2;
    rule.window = 50;
    rule.actions = {ResponseAction::kLogOnly};
    engine.add_rule(rule);

    (void)engine.evaluate(event(0, EventCategory::kMemory,
                                EventSeverity::kAlert));
    // 200 cycles later: the first event fell out of the window.
    EXPECT_TRUE(engine.evaluate(event(200, EventCategory::kMemory,
                                      EventSeverity::kAlert)).empty());
}

// Window boundary: an event exactly `window` cycles after the oldest
// still counts toward the threshold; one cycle later it has expired.
TEST(Policy, WindowBoundaryIsInclusive) {
    const auto fires_after = [](sim::Cycle gap) {
        PolicyEngine engine;
        PolicyRule rule;
        rule.name = "pair";
        rule.threshold = 2;
        rule.window = 100;
        rule.actions = {ResponseAction::kLogOnly};
        engine.add_rule(rule);
        (void)engine.evaluate(event(1000, EventCategory::kMemory,
                                    EventSeverity::kAlert));
        return !engine.evaluate(event(1000 + gap, EventCategory::kMemory,
                                      EventSeverity::kAlert))
                    .empty();
    };
    EXPECT_TRUE(fires_after(100));
    EXPECT_FALSE(fires_after(101));
}

TEST(Policy, RuleWithoutWindowNeverExpires) {
    PolicyEngine engine;
    PolicyRule rule;
    rule.name = "pair";
    rule.threshold = 2;
    rule.actions = {ResponseAction::kLogOnly};
    engine.add_rule(rule);
    (void)engine.evaluate(event(0, EventCategory::kMemory,
                                EventSeverity::kAlert));
    EXPECT_EQ(engine.evaluate(event(~sim::Cycle{0}, EventCategory::kMemory,
                                    EventSeverity::kAlert)).size(),
              1u);
}

TEST(Policy, RuleValidation) {
    PolicyEngine engine;
    PolicyRule no_actions;
    no_actions.name = "empty";
    EXPECT_THROW(engine.add_rule(no_actions), PolicyError);
    PolicyRule zero_threshold;
    zero_threshold.name = "z";
    zero_threshold.threshold = 0;
    zero_threshold.actions = {ResponseAction::kLogOnly};
    EXPECT_THROW(engine.add_rule(zero_threshold), PolicyError);
}

/// Scripted executor for SSM-only tests.
class FakeExecutor : public ResponseExecutor {
public:
    std::string execute(ResponseAction action,
                        const MonitorEvent& trigger) override {
        executed.emplace_back(action, trigger.resource);
        return "ok";
    }
    std::vector<std::pair<ResponseAction, std::string>> executed;
};

class SsmFixture : public ::testing::Test {
protected:
    SsmFixture() {
        SsmConfig config;
        config.physically_isolated = true;
        config.poll_interval = 10;
        config.seal_key = key();
        ssm = std::make_unique<SystemSecurityManager>(sim, config);
        ssm->set_response_executor(&executor);
        sim.add_tickable(ssm.get());
    }

    void install_policy(const std::string& dsl) {
        ssm->set_policy(PolicyEngine::parse(dsl));
    }

    sim::Simulator sim;
    FakeExecutor executor;
    std::unique_ptr<SystemSecurityManager> ssm;
};

TEST_F(SsmFixture, EventsProcessedAtPollInterval) {
    install_policy("rule r: severity>=critical -> kill-task\n");
    sim.run_for(5);
    ssm->submit(event(sim.now(), EventCategory::kControlFlow,
                      EventSeverity::kCritical, "cpu0"));
    EXPECT_EQ(ssm->events_processed(), 0u);  // Not polled yet.
    sim.run_for(20);
    EXPECT_EQ(ssm->events_processed(), 1u);
    ASSERT_EQ(executor.executed.size(), 1u);
    EXPECT_EQ(executor.executed[0].first, ResponseAction::kKillTask);
    EXPECT_EQ(ssm->queue_depth(), 0u);
}

TEST_F(SsmFixture, DetectionLatencyBounded) {
    install_policy("rule r: severity>=alert -> log-only\n");
    ssm->submit(event(0, EventCategory::kMemory, EventSeverity::kAlert));
    sim.run_for(30);
    const auto decisions = decision_cycles(ssm->evidence());
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_LE(decisions[0], 20u);  // The event was emitted at cycle 0.
}

TEST_F(SsmFixture, HealthEscalatesWithSeverity) {
    EXPECT_EQ(ssm->health(), HealthState::kHealthy);
    ssm->submit(event(0, EventCategory::kMemory, EventSeverity::kAlert));
    sim.run_for(20);
    EXPECT_EQ(ssm->health(), HealthState::kSuspicious);
    ssm->submit(event(sim.now(), EventCategory::kMemory,
                      EventSeverity::kCritical));
    sim.run_for(20);
    EXPECT_EQ(ssm->health(), HealthState::kCompromised);
}

TEST_F(SsmFixture, RespondAndRecoverFlow) {
    install_policy("rule r: severity>=critical -> isolate-resource\n");
    ssm->submit(event(0, EventCategory::kDataFlow, EventSeverity::kCritical,
                      "nic0"));
    sim.run_for(20);
    EXPECT_EQ(ssm->health(), HealthState::kResponding);
    ssm->notify_recovery_started(sim.now());
    EXPECT_EQ(ssm->health(), HealthState::kRecovering);
    ssm->notify_recovery_complete(sim.now(), /*degraded=*/true);
    EXPECT_EQ(ssm->health(), HealthState::kDegraded);
    ssm->notify_full_service(sim.now());
    EXPECT_EQ(ssm->health(), HealthState::kHealthy);
}

TEST_F(SsmFixture, EvidenceRecordsEventsDecisionsActionsStates) {
    install_policy("rule r: severity>=critical -> zeroise-keys\n");
    ssm->submit(event(0, EventCategory::kMemory, EventSeverity::kCritical,
                      "keys"));
    sim.run_for(20);
    const auto& records = ssm->evidence().records();
    bool saw_event = false, saw_decision = false, saw_action = false,
         saw_state = false;
    for (const auto& r : records) {
        if (r.kind == "event") saw_event = true;
        if (r.kind == "decision") saw_decision = true;
        if (r.kind == "action") saw_action = true;
        if (r.kind == "state") saw_state = true;
    }
    EXPECT_TRUE(saw_event);
    EXPECT_TRUE(saw_decision);
    EXPECT_TRUE(saw_action);
    EXPECT_TRUE(saw_state);
    EXPECT_TRUE(ssm->evidence().verify_chain());
}

TEST_F(SsmFixture, RiskRegisterTracksIncidents) {
    ssm->risks().add_asset("nic0", AssetKind::kChannel, 4, 5);
    ssm->submit(event(0, EventCategory::kNetwork, EventSeverity::kAlert,
                      "nic0"));
    sim.run_for(20);
    EXPECT_EQ(ssm->risks().assets().at("nic0").incidents, 1u);
}

TEST_F(SsmFixture, InfoEventsDoNotRaiseRisk) {
    ssm->submit(event(0, EventCategory::kTiming, EventSeverity::kInfo,
                      "task"));
    sim.run_for(20);
    EXPECT_FALSE(ssm->risks().contains("task"));
}

TEST_F(SsmFixture, IsolatedSsmSurvivesCompromiseAttempt) {
    EXPECT_FALSE(ssm->attempt_compromise("kernel-exploit"));
    EXPECT_FALSE(ssm->disabled());
    // The attempt itself left evidence.
    bool recorded = false;
    for (const auto& r : ssm->evidence().records()) {
        if (r.detail.find("compromise attempt") != std::string::npos) {
            recorded = true;
        }
    }
    EXPECT_TRUE(recorded);
}

TEST_F(SsmFixture, HealthReportVerifies) {
    ssm->submit(event(0, EventCategory::kMemory, EventSeverity::kAlert));
    sim.run_for(20);
    const auto report = ssm->health_report();
    EXPECT_TRUE(SystemSecurityManager::verify_health_report(report, key()));
    auto forged = report;
    forged.state = HealthState::kHealthy;
    forged.events_processed = 0;
    EXPECT_FALSE(SystemSecurityManager::verify_health_report(forged, key()));
}

/// Executor whose first action submits two more events to the SSM
/// that is draining its queue.
class SubmittingExecutor : public ResponseExecutor {
public:
    explicit SubmittingExecutor(SystemSecurityManager& ssm) : ssm_(ssm) {}

    std::string execute(ResponseAction /*action*/,
                        const MonitorEvent& trigger) override {
        order.push_back(trigger.resource);
        if (trigger.resource == "a") {
            ssm_.submit(event(trigger.at, EventCategory::kMemory,
                              EventSeverity::kCritical, "c"));
            ssm_.submit(event(trigger.at, EventCategory::kMemory,
                              EventSeverity::kCritical, "d"));
        }
        return "ok";
    }

    std::vector<std::string> order;

private:
    SystemSecurityManager& ssm_;
};

// Events a response action submits mid-drain are processed in the same
// poll, after the events queued before them, and the depth gauge sees
// the queue as it stands at each submit.
TEST_F(SsmFixture, EventsSubmittedMidDrainJoinTheSamePoll) {
    obs::MetricsRegistry registry;
    ssm->bind_metrics(registry);
    SubmittingExecutor submitter(*ssm);
    ssm->set_response_executor(&submitter);
    install_policy("rule r: severity>=critical -> log-only\n");
    ssm->submit(event(0, EventCategory::kMemory, EventSeverity::kCritical,
                      "a"));
    ssm->submit(event(0, EventCategory::kMemory, EventSeverity::kCritical,
                      "b"));
    sim.run_for(1);  // The poll at cycle 0.

    EXPECT_EQ(submitter.order,
              (std::vector<std::string>{"a", "b", "c", "d"}));
    EXPECT_EQ(ssm->events_processed(), 4u);
    EXPECT_EQ(decision_cycles(ssm->evidence()),
              (std::vector<sim::Cycle>{0, 0, 0, 0}));
    EXPECT_EQ(ssm->queue_depth(), 0u);
    // a and b queued (2); draining a leaves b, then c and d join it (3).
    const obs::Gauge* depth = registry.find_gauge("cres_ssm_queue_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->max(), 3);
    EXPECT_EQ(depth->value(), 0);
}

// Polls fall on the grid construction cycle + k * poll_interval, and
// only a poll with events queued is made: idle cycles leave no
// queue-depth sample. Per-cycle stepping and fast-forward agree.
TEST_F(SsmFixture, PollGridStartsAtConstructionAndIdleCyclesRecordNothing) {
    const auto run = [](bool quiescence, std::string& json) {
        sim::Simulator sim;
        sim.set_quiescence(quiescence);
        sim.run_for(7);
        SsmConfig config;
        config.poll_interval = 10;
        config.seal_key = key();
        SystemSecurityManager late(sim, config);  // Polls at 7, 17, 27...
        obs::MetricsRegistry registry;
        late.bind_metrics(registry);
        late.set_policy(
            PolicyEngine::parse("rule r: severity>=alert -> log-only\n"));
        sim.add_tickable(&late);

        sim.run_until(20);
        late.submit(event(20, EventCategory::kMemory, EventSeverity::kAlert));
        sim.run_until(28);
        EXPECT_EQ(decision_cycles(late.evidence()),
                  (std::vector<sim::Cycle>{27}));
        sim.run_for(1000);

        const obs::Histogram* depth =
            registry.find_histogram("cres_ssm_queue_depth_per_poll");
        ASSERT_NE(depth, nullptr);
        EXPECT_EQ(depth->count(), 1u);  // The draining poll only.
        EXPECT_EQ(depth->max(), 1u);
        json = registry.json();
    };
    std::string fast;
    std::string stepped;
    run(true, fast);
    run(false, stepped);
    EXPECT_EQ(fast, stepped);
}

TEST(SsmShared, SharedSsmDiesWithKernel) {
    sim::Simulator sim;
    SsmConfig config;
    config.physically_isolated = false;  // TEE-style shared resources.
    config.seal_key = key();
    SystemSecurityManager ssm(sim, config);
    sim.add_tickable(&ssm);

    ssm.submit(event(0, EventCategory::kMemory, EventSeverity::kCritical));
    sim.run_for(20);
    EXPECT_GT(ssm.evidence().size(), 0u);

    EXPECT_TRUE(ssm.attempt_compromise("kernel-exploit"));
    EXPECT_TRUE(ssm.disabled());
    EXPECT_EQ(ssm.evidence().size(), 0u);  // Evidence destroyed.

    // Dead SSM processes nothing further.
    ssm.submit(event(sim.now(), EventCategory::kMemory,
                     EventSeverity::kCritical));
    sim.run_for(20);
    EXPECT_EQ(ssm.queue_depth(), 0u);
    EXPECT_EQ(ssm.events_processed(), 1u);
}

TEST(SsmConfigTest, ZeroPollIntervalRejected) {
    sim::Simulator sim;
    SsmConfig config;
    config.seal_key = key();
    config.poll_interval = 0;
    EXPECT_THROW(SystemSecurityManager(sim, config), Error);
}

class ResponseFixture : public ::testing::Test {
protected:
    ResponseFixture() : ram("ram", 0x1000), cpu("cpu0", bus) {
        bus.map(mem::RegionConfig{"ram", 0, 0x1000, false, false}, ram);
        bus.map(mem::RegionConfig{"periph", 0x8000, 0x100, false, false},
                periph_backing);
        keystore.install("root", to_bytes("k"), crypto::KeyAccess::kSsmOnly);
        recovery = std::make_unique<RecoveryManager>(cpu, ram);

        degradation.register_service("telemetry", false,
                                     [this](bool on) { telemetry_on = on; });
        degradation.register_service("control", true,
                                     [this](bool on) { control_on = on; });

        ctx.bus = &bus;
        ctx.cpu = &cpu;
        ctx.keystore = &keystore;
        ctx.recovery = recovery.get();
        ctx.degradation = &degradation;
        ctx.sim = &sim;
        ctx.operator_alert = [this](const std::string& m) {
            alerts.push_back(m);
        };
        ctx.system_reset = [this] { ++resets; };
        ctx.rate_limiter = [](const std::string& r) {
            return "rate-limited " + r;
        };
        arm = std::make_unique<ActiveResponseManager>(ctx);
    }

    MonitorEvent trigger(const std::string& resource) {
        return MonitorEvent{sim.now(), "m", EventCategory::kMemory,
                            EventSeverity::kCritical, resource, "d", 0, 0,
                            std::nullopt};
    }

    sim::Simulator sim;
    mem::Bus bus;
    mem::Ram ram;
    mem::Ram periph_backing{"periph", 0x100};
    isa::Cpu cpu;
    crypto::KeyStore keystore;
    std::unique_ptr<RecoveryManager> recovery;
    DegradationManager degradation;
    ResponseContext ctx;
    std::unique_ptr<ActiveResponseManager> arm;
    std::vector<std::string> alerts;
    int resets = 0;
    bool telemetry_on = true;
    bool control_on = true;
};

TEST_F(ResponseFixture, IsolateResourceFencesBusRegion) {
    const std::string outcome =
        arm->execute(ResponseAction::kIsolateResource, trigger("periph"));
    EXPECT_NE(outcome.find("fenced"), std::string::npos);
    EXPECT_TRUE(bus.is_isolated("periph"));
}

TEST_F(ResponseFixture, IsolateUnknownRegionReportsIt) {
    const std::string outcome =
        arm->execute(ResponseAction::kIsolateResource, trigger("ghost"));
    EXPECT_NE(outcome.find("no such region"), std::string::npos);
}

TEST_F(ResponseFixture, KillTaskHaltsCpu) {
    cpu.reset(0);
    EXPECT_FALSE(cpu.halted());
    (void)arm->execute(ResponseAction::kKillTask, trigger("cpu0"));
    EXPECT_TRUE(cpu.halted());
}

TEST_F(ResponseFixture, ZeroiseWipesKeys) {
    EXPECT_EQ(keystore.live_count(), 1u);
    const std::string outcome =
        arm->execute(ResponseAction::kZeroiseKeys, trigger("keys"));
    EXPECT_EQ(keystore.live_count(), 0u);
    EXPECT_NE(outcome.find("1"), std::string::npos);
}

TEST_F(ResponseFixture, CheckpointRestoreRoundTrip) {
    const isa::Program p = isa::assemble(R"(
        addi r1, r0, 7
        halt
    )");
    ram.load(0, p.code);
    cpu.reset(0);
    while (!cpu.halted()) cpu.step();
    EXPECT_EQ(cpu.reg(1), 7u);

    recovery->take_checkpoint(sim.now());
    // "Malware" trashes memory and registers.
    ram.fill(0xff);
    cpu.set_reg(1, 0xbad);

    const std::string outcome =
        arm->execute(ResponseAction::kRestoreCheckpoint, trigger("cpu0"));
    EXPECT_NE(outcome.find("restored"), std::string::npos);
    EXPECT_EQ(cpu.reg(1), 7u);
    EXPECT_EQ(ram.dump(0, p.code.size()), p.code);
    EXPECT_FALSE(cpu.halted());
    EXPECT_EQ(recovery->restores(), 1u);
}

TEST_F(ResponseFixture, RestoreWithoutCheckpointUnavailable) {
    const std::string outcome =
        arm->execute(ResponseAction::kRestoreCheckpoint, trigger("cpu0"));
    EXPECT_NE(outcome.find("unavailable"), std::string::npos);
}

TEST_F(ResponseFixture, DegradeShedsNonCritical) {
    const std::string outcome =
        arm->execute(ResponseAction::kDegrade, trigger("soc"));
    EXPECT_NE(outcome.find("shed 1"), std::string::npos);
    EXPECT_FALSE(telemetry_on);
    EXPECT_TRUE(control_on);
    EXPECT_TRUE(degradation.degraded());
    degradation.restore();
    EXPECT_TRUE(telemetry_on);
}

TEST_F(ResponseFixture, AlertReachesOperator) {
    (void)arm->execute(ResponseAction::kAlertOperator, trigger("x"));
    ASSERT_EQ(alerts.size(), 1u);
}

TEST_F(ResponseFixture, ResetInvokesLine) {
    (void)arm->execute(ResponseAction::kResetSystem, trigger("x"));
    EXPECT_EQ(resets, 1);
}

TEST_F(ResponseFixture, RateLimitUsesHook) {
    const std::string outcome =
        arm->execute(ResponseAction::kRateLimitPeripheral, trigger("breaker"));
    EXPECT_EQ(outcome, "rate-limited breaker");
}

TEST_F(ResponseFixture, MissingFacilitiesReportUnavailable) {
    ActiveResponseManager bare{ResponseContext{}};
    EXPECT_NE(bare.execute(ResponseAction::kIsolateResource, trigger("r"))
                  .find("unavailable"),
              std::string::npos);
    EXPECT_NE(bare.execute(ResponseAction::kZeroiseKeys, trigger("r"))
                  .find("unavailable"),
              std::string::npos);
    EXPECT_NE(bare.execute(ResponseAction::kRollbackFirmware, trigger("r"))
                  .find("unavailable"),
              std::string::npos);
}

TEST_F(ResponseFixture, RecordsAccumulate) {
    obs::MetricsRegistry registry;
    arm->bind_metrics(registry);
    (void)arm->execute(ResponseAction::kLogOnly, trigger("a"));
    (void)arm->execute(ResponseAction::kKillTask, trigger("b"));
    EXPECT_EQ(arm->total(), 2u);
    const obs::Counter* kills = registry.find_counter(
        "cres_response_action_total{action=\"kill-task\"}");
    ASSERT_NE(kills, nullptr);
    EXPECT_EQ(kills->value(), 1u);
}

TEST(Registry, CoversAllFiveCsfFunctions) {
    const auto functions = covered_functions();
    EXPECT_EQ(functions.size(), 5u);
    const std::set<std::string> expected = {"identify", "protect", "detect",
                                            "respond", "recover"};
    EXPECT_EQ(std::set<std::string>(functions.begin(), functions.end()),
              expected);
    EXPECT_GE(capability_registry().size(), 20u);
}

}  // namespace
}  // namespace cres::core
