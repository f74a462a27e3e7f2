// Active Runtime Resource Monitor tests: each monitor's detection
// logic, enable/disable gating, and event contents.
#include <gtest/gtest.h>

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
#include "isa/assembler.h"
#include "mem/ram.h"
#include "util/error.h"

namespace cres::core {
namespace {

/// Collects everything monitors emit.
class CollectingSink : public EventSink {
public:
    void submit(const MonitorEvent& event) override {
        events.push_back(event);
    }

    [[nodiscard]] std::size_t count(EventCategory category,
                                    EventSeverity min_severity =
                                        EventSeverity::kInfo) const {
        std::size_t n = 0;
        for (const auto& e : events) {
            if (e.category == category && e.severity >= min_severity) ++n;
        }
        return n;
    }

    [[nodiscard]] bool saw(EventCategory category,
                           EventSeverity min_severity) const {
        return count(category, min_severity) > 0;
    }

    std::vector<MonitorEvent> events;
};

const mem::BusAttr kNormal{mem::Master::kCpu, false, false};
const mem::BusAttr kDma{mem::Master::kDma, false, false};

class BusMonFixture : public ::testing::Test {
protected:
    BusMonFixture() : ram("ram", 0x1000), secret("secret", 0x100) {
        bus.map(mem::RegionConfig{"ram", 0x0, 0x1000, false, false}, ram);
        bus.map(mem::RegionConfig{"secret", 0x8000, 0x100, true, false},
                secret);
        monitor = std::make_unique<BusMonitor>(sink, sim, bus);
    }

    CollectingSink sink;
    sim::Simulator sim;
    mem::Bus bus;
    mem::Ram ram;
    mem::Ram secret;
    std::unique_ptr<BusMonitor> monitor;
};

TEST_F(BusMonFixture, SecurityViolationIsAlert) {
    (void)bus.read(0x8000, 4, kNormal);
    ASSERT_EQ(sink.events.size(), 1u);
    EXPECT_EQ(sink.events[0].category, EventCategory::kBusViolation);
    EXPECT_EQ(sink.events[0].severity, EventSeverity::kAlert);
    EXPECT_EQ(sink.events[0].resource, "secret");
}

TEST_F(BusMonFixture, ProbeDetectionEscalates) {
    monitor->set_probe_threshold(4, 1000);
    for (int i = 0; i < 4; ++i) {
        (void)bus.read(0x9000'0000 + static_cast<mem::Addr>(i) * 4, 4,
                       kNormal);
    }
    EXPECT_TRUE(sink.saw(EventCategory::kBusViolation, EventSeverity::kAlert));
}

TEST_F(BusMonFixture, IsolatedDecodeProbesOutsideWindowStayAdvisory) {
    monitor->set_probe_threshold(4, 10);
    for (int i = 0; i < 4; ++i) {
        (void)bus.read(0x9000'0000, 4, kNormal);
        sim.run_for(50);  // Spread them beyond the window.
    }
    EXPECT_FALSE(sink.saw(EventCategory::kBusViolation,
                          EventSeverity::kAlert));
    EXPECT_EQ(sink.count(EventCategory::kBusViolation), 4u);
}

// Window boundary: a probe exactly `window` cycles after the oldest
// still counts toward the threshold; one cycle later it has expired.
TEST(BusMon, ProbeWindowBoundaryIsInclusive) {
    const auto alerts_after = [](sim::Cycle gap) {
        CollectingSink sink;
        sim::Simulator sim;
        mem::Bus bus;
        BusMonitor monitor(sink, sim, bus);
        monitor.set_probe_threshold(2, 100);
        (void)bus.read(0x9000'0000, 4, kNormal);
        sim.run_for(gap);
        (void)bus.read(0x9000'0000, 4, kNormal);
        return sink.saw(EventCategory::kBusViolation, EventSeverity::kAlert);
    };
    EXPECT_TRUE(alerts_after(100));
    EXPECT_FALSE(alerts_after(101));
}

TEST_F(BusMonFixture, MasterAllowlistViolation) {
    monitor->allow_master(mem::Master::kDma, {"ram"});
    (void)bus.read(0x0, 4, kDma);  // Allowed.
    EXPECT_EQ(sink.events.size(), 0u);
    (void)bus.read(0x8000, 4,
                   mem::BusAttr{mem::Master::kDma, true, false});  // Denied.
    EXPECT_TRUE(sink.saw(EventCategory::kBusViolation, EventSeverity::kAlert));
}

TEST_F(BusMonFixture, DisabledMonitorEmitsNothing) {
    monitor->set_enabled(false);
    (void)bus.read(0x8000, 4, kNormal);
    EXPECT_TRUE(sink.events.empty());
    EXPECT_EQ(monitor->events_emitted(), 0u);
}

class CfiFixture : public ::testing::Test {
protected:
    CfiFixture() : ram("ram", 0x10000), cpu("cpu0", bus) {
        bus.map(mem::RegionConfig{"ram", 0x0, 0x10000, false, false}, ram);
        monitor = std::make_unique<CfiMonitor>(sink, sim, cpu);
        sim.add_tickable(&cpu);
    }

    void run_program(const std::string& source, std::size_t max_steps = 2000) {
        const isa::Program p = isa::assemble(source, 0);
        ram.load(0, p.code);
        cpu.reset(0);
        std::size_t steps = 0;
        while (!cpu.halted() && steps++ < max_steps) cpu.step();
    }

    CollectingSink sink;
    sim::Simulator sim;
    mem::Bus bus;
    mem::Ram ram;
    isa::Cpu cpu;
    std::unique_ptr<CfiMonitor> monitor;
};

TEST_F(CfiFixture, CleanCallsRaiseNothing) {
    run_program(R"(
        li   sp, 0xf000
        call f1
        call f1
        halt
    f1: addi sp, sp, -4
        sw   lr, sp, 0
        call f2
        lw   lr, sp, 0
        addi sp, sp, 4
        ret
    f2: ret
    )");
    EXPECT_EQ(sink.count(EventCategory::kControlFlow, EventSeverity::kAlert),
              0u);
    EXPECT_EQ(monitor->shadow_depth(), 0u);
}

TEST_F(CfiFixture, CorruptedReturnDetected) {
    // The callee overwrites lr before returning — the classic smashed
    // return address.
    run_program(R"(
        call victim
        halt
    landing:
        halt
    victim:
        la  lr, landing   ; corrupt the link register
        ret
    )");
    EXPECT_GE(sink.count(EventCategory::kControlFlow,
                         EventSeverity::kCritical),
              1u);
}

TEST_F(CfiFixture, ReturnWithoutCallDetected) {
    run_program(R"(
        la  lr, done
        ret
    done:
        halt
    )");
    EXPECT_TRUE(sink.saw(EventCategory::kControlFlow, EventSeverity::kAlert));
}

TEST_F(CfiFixture, InvalidCallTargetDetected) {
    const isa::Program p = isa::assemble(R"(
        li   r1, 0x500      ; not a declared function
        jalr lr, r1, 0
        halt
    )");
    ram.load(0, p.code);
    // 0x500 holds zeros = nop sled... declare only symbol "main"=0.
    ram.load(0x500, isa::assemble("ret\n").code);
    monitor->set_valid_targets({0x100});  // Only 0x100 is legal.
    cpu.reset(0);
    for (int i = 0; i < 50 && !cpu.halted(); ++i) cpu.step();
    EXPECT_TRUE(sink.saw(EventCategory::kControlFlow, EventSeverity::kAlert));
}

TEST_F(CfiFixture, ResetClearsShadowStack) {
    run_program(R"(
        call f
        halt
    f:  halt   ; never returns; leaves a frame on the shadow stack
    )");
    EXPECT_EQ(monitor->shadow_depth(), 1u);
    monitor->reset();
    EXPECT_EQ(monitor->shadow_depth(), 0u);
}

class MemMonFixture : public ::testing::Test {
protected:
    MemMonFixture() : code("code", 0x1000), data("data", 0x1000) {
        bus.map(mem::RegionConfig{"code", 0x0, 0x1000, false, false}, code);
        bus.map(mem::RegionConfig{"data", 0x4000, 0x1000, false, false}, data);
        monitor = std::make_unique<MemoryMonitor>(sink, sim, bus);
        monitor->protect_code_region("code");
    }

    CollectingSink sink;
    sim::Simulator sim;
    mem::Bus bus;
    mem::Ram code;
    mem::Ram data;
    std::unique_ptr<MemoryMonitor> monitor;
};

TEST_F(MemMonFixture, CodeWriteIsCritical) {
    (void)bus.write(0x100, 4, 0xdead, kNormal);
    EXPECT_TRUE(sink.saw(EventCategory::kMemory, EventSeverity::kCritical));
}

TEST_F(MemMonFixture, DataWriteIsFine) {
    (void)bus.write(0x4000, 4, 1, kNormal);
    EXPECT_TRUE(sink.events.empty());
}

TEST_F(MemMonFixture, CanaryOverwriteDetected) {
    monitor->watch_canary(0x4100, 0xcafebabe);
    (void)bus.write(0x4100, 4, 0xcafebabe, kNormal);  // Preserving is ok.
    EXPECT_TRUE(sink.events.empty());
    (void)bus.write(0x4100, 4, 0x41414141, kNormal);  // Smash.
    EXPECT_TRUE(sink.saw(EventCategory::kMemory, EventSeverity::kCritical));
}

TEST_F(MemMonFixture, PartialCanaryOverwriteDetected) {
    monitor->watch_canary(0x4100, 0xcafebabe);
    (void)bus.write(0x4102, 1, 0x41, kNormal);  // Byte inside the canary.
    EXPECT_TRUE(sink.saw(EventCategory::kMemory, EventSeverity::kCritical));
}

TEST_F(MemMonFixture, BulkReadHeuristicFires) {
    monitor->watch_sensitive("keyblock", 0x4800, 0x100, 64, 10000);
    for (mem::Addr a = 0; a < 64; a += 4) {
        (void)bus.read(0x4800 + a, 4, kNormal);
    }
    EXPECT_TRUE(sink.saw(EventCategory::kMemory, EventSeverity::kAlert));
}

TEST_F(MemMonFixture, SparseReadsBelowThresholdSilent) {
    monitor->watch_sensitive("keyblock", 0x4800, 0x100, 64, 10);
    for (int i = 0; i < 32; ++i) {
        (void)bus.read(0x4800, 4, kNormal);
        sim.run_for(50);  // Each read in its own window.
    }
    EXPECT_FALSE(sink.saw(EventCategory::kMemory, EventSeverity::kAlert));
}

// Window boundary, weighted by bytes: a read exactly `window` cycles
// after the oldest still counts; one cycle later it has expired.
TEST(MemoryMon, BulkReadWindowBoundaryIsInclusive) {
    const auto alerts_after = [](sim::Cycle gap) {
        CollectingSink sink;
        sim::Simulator sim;
        mem::Bus bus;
        mem::Ram data("data", 0x1000);
        bus.map(mem::RegionConfig{"data", 0x4000, 0x1000, false, false},
                data);
        MemoryMonitor monitor(sink, sim, bus);
        monitor.watch_sensitive("keyblock", 0x4800, 0x100, 8, 100);
        (void)bus.read(0x4800, 4, kNormal);
        sim.run_for(gap);
        (void)bus.read(0x4804, 4, kNormal);
        return sink.saw(EventCategory::kMemory, EventSeverity::kAlert);
    };
    EXPECT_TRUE(alerts_after(100));
    EXPECT_FALSE(alerts_after(101));
}

class DiftFixture : public ::testing::Test {
protected:
    DiftFixture() : ram("ram", 0x1000), nic_buf("nic", 0x100) {
        bus.map(mem::RegionConfig{"ram", 0x0, 0x1000, false, false}, ram);
        bus.map(mem::RegionConfig{"nic", 0x8000, 0x100, false, false},
                nic_buf);
        monitor = std::make_unique<DiftMonitor>(sink, sim, bus);
        monitor->add_source(0x200, 0x20);  // Secret at 0x200.
        monitor->add_sink_region("nic");
    }

    CollectingSink sink;
    sim::Simulator sim;
    mem::Bus bus;
    mem::Ram ram;
    mem::Ram nic_buf;
    std::unique_ptr<DiftMonitor> monitor;
};

TEST_F(DiftFixture, DirectLeakDetected) {
    (void)bus.read(0x200, 4, kNormal);        // Read secret -> taint cpu.
    (void)bus.write(0x8000, 4, 0xfeed, kNormal);  // Write to sink.
    EXPECT_TRUE(sink.saw(EventCategory::kDataFlow, EventSeverity::kCritical));
    EXPECT_EQ(monitor->leaked_bytes(), 4u);
}

TEST_F(DiftFixture, IndirectLeakThroughMemoryDetected) {
    (void)bus.read(0x200, 4, kNormal);         // Taint cpu.
    (void)bus.write(0x600, 4, 0x1234, kNormal);  // Stage in plain RAM.
    EXPECT_TRUE(monitor->is_tainted(0x600));
    (void)bus.write(0x8000, 4, 0x1234, kNormal);  // Exfiltrate.
    EXPECT_TRUE(sink.saw(EventCategory::kDataFlow, EventSeverity::kCritical));
}

TEST_F(DiftFixture, CleanTrafficSilent) {
    (void)bus.read(0x700, 4, kNormal);
    (void)bus.write(0x8000, 4, 42, kNormal);
    EXPECT_EQ(sink.count(EventCategory::kDataFlow, EventSeverity::kCritical),
              0u);
    EXPECT_EQ(monitor->leaked_bytes(), 0u);
}

TEST_F(DiftFixture, OverwriteClearsTaint) {
    (void)bus.read(0x200, 4, kNormal);           // cpu tainted.
    (void)bus.write(0x600, 4, 0, kNormal);       // 0x600 tainted.
    // An untainted master overwrites the staged copy.
    (void)bus.write(0x600, 4, 0, kDma);
    EXPECT_FALSE(monitor->is_tainted(0x600));
}

TEST_F(DiftFixture, SourceAddressesAlwaysTainted) {
    EXPECT_TRUE(monitor->is_tainted(0x200));
    EXPECT_TRUE(monitor->is_tainted(0x21f));
    EXPECT_FALSE(monitor->is_tainted(0x220));
}

class PeriphFixture : public ::testing::Test {
protected:
    PeriphFixture()
        : act("breaker", -100.0, 100.0),
          sensor("grid", sim, [](sim::Cycle) { return 50.0; }, 10) {
        bus.map(mem::RegionConfig{"breaker", 0x7000, 0x100, false, false},
                act);
        monitor = std::make_unique<PeripheralMonitor>(sink, sim, bus);
        monitor->watch_actuator(
            "breaker", 0x7000 + dev::Actuator::kRegCommand,
            ActuatorEnvelope{-50.0, 50.0, 10.0, 8, 1000});
        sim.add_tickable(monitor.get());
    }

    void command(double value) {
        (void)bus.write(0x7000 + dev::Actuator::kRegCommand, 4,
                        static_cast<std::uint32_t>(dev::to_fixed(value)),
                        kNormal);
    }

    CollectingSink sink;
    sim::Simulator sim;
    mem::Bus bus;
    dev::Actuator act;
    dev::Sensor sensor;
    std::unique_ptr<PeripheralMonitor> monitor;
};

TEST_F(PeriphFixture, InRangeCommandsSilent) {
    command(10.0);
    sim.run_for(200);
    command(15.0);
    EXPECT_EQ(sink.count(EventCategory::kPeripheral), 0u);
}

TEST_F(PeriphFixture, OutOfRangeCommandCritical) {
    command(80.0);
    EXPECT_TRUE(sink.saw(EventCategory::kPeripheral,
                         EventSeverity::kCritical));
}

TEST_F(PeriphFixture, SlewViolationAlert) {
    command(0.0);
    command(30.0);  // Jump of 30 > max_slew 10.
    EXPECT_TRUE(sink.saw(EventCategory::kPeripheral, EventSeverity::kAlert));
}

TEST_F(PeriphFixture, CommandFloodAlert) {
    for (int i = 0; i < 12; ++i) command(1.0);
    EXPECT_TRUE(sink.saw(EventCategory::kPeripheral, EventSeverity::kAlert));
}

// Window boundary: a command exactly `rate_window` cycles after the
// oldest still counts toward the rate; one cycle later it has expired.
TEST(PeripheralMon, CommandRateWindowBoundaryIsInclusive) {
    const auto alerts_after = [](sim::Cycle gap) {
        CollectingSink sink;
        sim::Simulator sim;
        mem::Bus bus;
        dev::Actuator act("breaker", -100.0, 100.0);
        bus.map(mem::RegionConfig{"breaker", 0x7000, 0x100, false, false},
                act);
        PeripheralMonitor monitor(sink, sim, bus);
        monitor.watch_actuator("breaker", 0x7000 + dev::Actuator::kRegCommand,
                               ActuatorEnvelope{-50.0, 50.0, 10.0, 1, 100});
        const auto command = [&bus] {
            (void)bus.write(0x7000 + dev::Actuator::kRegCommand, 4,
                            static_cast<std::uint32_t>(dev::to_fixed(1.0)),
                            kNormal);
        };
        command();
        sim.run_for(gap);
        command();
        return sink.saw(EventCategory::kPeripheral, EventSeverity::kAlert);
    };
    EXPECT_TRUE(alerts_after(100));
    EXPECT_FALSE(alerts_after(101));
}

TEST_F(PeriphFixture, SensorEnvelopeViolation) {
    monitor->watch_sensor(sensor, SensorEnvelope{40.0, 60.0, 5.0}, 10);
    sim.run_for(50);
    EXPECT_EQ(sink.count(EventCategory::kPeripheral), 0u);
    sensor.set_spoof([](sim::Cycle) { return 500.0; });  // Absurd value.
    sim.run_for(50);
    EXPECT_TRUE(sink.saw(EventCategory::kPeripheral, EventSeverity::kAlert));
}

TEST_F(PeriphFixture, ZeroSensorPeriodRejected) {
    EXPECT_THROW(
        monitor->watch_sensor(sensor, SensorEnvelope{0.0, 100.0, 5.0}, 0),
        Error);
}

TEST_F(PeriphFixture, SensorStepImplausible) {
    monitor->watch_sensor(sensor, SensorEnvelope{0.0, 100.0, 5.0}, 10);
    sim.run_for(50);
    sensor.set_spoof([](sim::Cycle) { return 80.0; });  // In range, big step.
    sim.run_for(50);
    EXPECT_TRUE(sink.saw(EventCategory::kPeripheral, EventSeverity::kAlert));
}

TEST(TimingMon, MissedHeartbeatEscalates) {
    CollectingSink sink;
    sim::Simulator sim;
    TimingMonitor monitor(sink, sim);
    sim.add_tickable(&monitor);

    monitor.register_task("control-loop", 100);
    for (int i = 0; i < 5; ++i) {
        sim.run_for(50);
        monitor.heartbeat("control-loop");
    }
    EXPECT_EQ(sink.count(EventCategory::kTiming, EventSeverity::kAlert), 0u);

    sim.run_for(200);  // Task goes quiet.
    EXPECT_EQ(monitor.missed_deadlines("control-loop"), 1u);
    EXPECT_TRUE(sink.saw(EventCategory::kTiming, EventSeverity::kAlert));

    monitor.heartbeat("control-loop");  // Resumes.
    sim.run_for(50);
    // Third miss escalates to critical.
    sim.run_for(200);
    monitor.heartbeat("control-loop");
    sim.run_for(200);
    monitor.heartbeat("control-loop");
    sim.run_for(200);
    EXPECT_TRUE(sink.saw(EventCategory::kTiming, EventSeverity::kCritical));
}

// A poll is one heartbeat of a registered task: the gap samples are the
// heartbeat intervals, and neither an unregistered task's heartbeat nor
// idle cycles add a poll. Per-cycle stepping and fast-forward agree.
TEST(TimingMon, PollsAreHeartbeatsOfRegisteredTasks) {
    const auto run = [](bool quiescence, std::string& json) {
        CollectingSink sink;
        sim::Simulator sim;
        sim.set_quiescence(quiescence);
        obs::MetricsRegistry registry;
        TimingMonitor monitor(sink, sim);
        monitor.bind_metrics(registry);
        sim.add_tickable(&monitor);
        monitor.register_task("loop", 1000);
        for (const sim::Cycle gap : {300, 500, 800}) {
            sim.run_for(gap);
            monitor.heartbeat("loop");
            monitor.heartbeat("ghost");
        }
        sim.run_for(5000);  // The task goes quiet: one miss, no poll.
        EXPECT_EQ(monitor.missed_deadlines("loop"), 1u);

        const auto* polls = registry.find_counter(
            "cres_monitor_polls_total{monitor=\"timing-monitor\"}");
        const auto* gaps = registry.find_histogram(
            "cres_monitor_poll_gap_cycles{monitor=\"timing-monitor\"}");
        ASSERT_NE(polls, nullptr);
        ASSERT_NE(gaps, nullptr);
        EXPECT_EQ(polls->value(), 3u);
        EXPECT_EQ(gaps->count(), 2u);
        EXPECT_EQ(gaps->min(), 500u);
        EXPECT_EQ(gaps->max(), 800u);
        EXPECT_EQ(gaps->sum(), 1300u);
        json = registry.json();
    };
    std::string fast;
    std::string stepped;
    run(true, fast);
    run(false, stepped);
    EXPECT_EQ(fast, stepped);
}

TEST(TimingMon, UnregisteredTaskIgnored) {
    CollectingSink sink;
    sim::Simulator sim;
    TimingMonitor monitor(sink, sim);
    monitor.heartbeat("ghost");  // No crash, no event.
    monitor.register_task("t", 10);
    monitor.unregister_task("t");
    sim.add_tickable(&monitor);
    sim.run_for(100);
    EXPECT_TRUE(sink.events.empty());
}

TEST(NetworkMon, FailureStreakEscalates) {
    CollectingSink sink;
    sim::Simulator sim;
    NetworkMonitor monitor(sink, sim);
    monitor.set_failure_streak_threshold(3);

    monitor.note_rx(net::RecvStatus::kBadTag, 64);
    monitor.note_rx(net::RecvStatus::kBadTag, 64);
    EXPECT_FALSE(sink.saw(EventCategory::kNetwork, EventSeverity::kCritical));
    monitor.note_rx(net::RecvStatus::kBadTag, 64);
    EXPECT_TRUE(sink.saw(EventCategory::kNetwork, EventSeverity::kCritical));
    EXPECT_EQ(monitor.auth_failures(), 3u);
}

TEST(NetworkMon, SuccessResetsStreak) {
    CollectingSink sink;
    sim::Simulator sim;
    NetworkMonitor monitor(sink, sim);
    monitor.set_failure_streak_threshold(3);
    monitor.note_rx(net::RecvStatus::kBadTag, 64);
    monitor.note_rx(net::RecvStatus::kOk, 64);
    monitor.note_rx(net::RecvStatus::kBadTag, 64);
    monitor.note_rx(net::RecvStatus::kBadTag, 64);
    EXPECT_FALSE(sink.saw(EventCategory::kNetwork, EventSeverity::kCritical));
}

TEST(NetworkMon, SingleReplayIsAdvisoryWithSequenceFingerprint) {
    CollectingSink sink;
    sim::Simulator sim;
    NetworkMonitor monitor(sink, sim);
    monitor.note_rx(net::RecvStatus::kReplay, 64, 7);
    EXPECT_FALSE(sink.saw(EventCategory::kNetwork, EventSeverity::kAlert));
    ASSERT_EQ(sink.count(EventCategory::kNetwork, EventSeverity::kAdvisory),
              1u);
    // The replayed sequence number rides on `a` for fleet correlation.
    EXPECT_EQ(sink.events.back().a, 7u);
}

TEST(NetworkMon, ReplayBurstEscalatesToAlert) {
    CollectingSink sink;
    sim::Simulator sim;
    NetworkMonitor monitor(sink, sim);
    monitor.note_rx(net::RecvStatus::kReplay, 64, 7);
    monitor.note_rx(net::RecvStatus::kReplay, 64, 7);
    EXPECT_FALSE(sink.saw(EventCategory::kNetwork, EventSeverity::kAlert));
    monitor.note_rx(net::RecvStatus::kReplay, 64, 7);
    EXPECT_TRUE(sink.saw(EventCategory::kNetwork, EventSeverity::kAlert));
    EXPECT_EQ(monitor.auth_failures(), 3u);
}

TEST(NetworkMon, FloodDetected) {
    CollectingSink sink;
    sim::Simulator sim;
    NetworkMonitor monitor(sink, sim);
    monitor.set_flood_threshold(50, 1000);
    for (int i = 0; i < 50; ++i) monitor.note_rx(net::RecvStatus::kOk, 64);
    EXPECT_TRUE(sink.saw(EventCategory::kNetwork, EventSeverity::kAlert));
}

// Window boundary: a frame exactly `window` cycles after the oldest
// still counts toward the flood; one cycle later it has expired.
TEST(NetworkMon, FloodWindowBoundaryIsInclusive) {
    const auto alerts_after = [](sim::Cycle gap) {
        CollectingSink sink;
        sim::Simulator sim;
        NetworkMonitor monitor(sink, sim);
        monitor.set_flood_threshold(2, 100);
        monitor.note_rx(net::RecvStatus::kOk, 64);
        sim.run_for(gap);
        monitor.note_rx(net::RecvStatus::kOk, 64);
        return sink.saw(EventCategory::kNetwork, EventSeverity::kAlert);
    };
    EXPECT_TRUE(alerts_after(100));
    EXPECT_FALSE(alerts_after(101));
}

// Same boundary for the replay burst (3 replays in 20000 cycles): the
// third replay exactly 20000 cycles after the first escalates, one
// cycle later the first has expired and it stays advisory.
TEST(NetworkMon, ReplayBurstWindowBoundaryIsInclusive) {
    const auto alerts_after = [](sim::Cycle gap) {
        CollectingSink sink;
        sim::Simulator sim;
        NetworkMonitor monitor(sink, sim);
        monitor.note_rx(net::RecvStatus::kReplay, 64, 7);
        sim.run_for(1);
        monitor.note_rx(net::RecvStatus::kReplay, 64, 7);
        sim.run_for(gap - 1);
        monitor.note_rx(net::RecvStatus::kReplay, 64, 7);
        return sink.saw(EventCategory::kNetwork, EventSeverity::kAlert);
    };
    EXPECT_TRUE(alerts_after(20000));
    EXPECT_FALSE(alerts_after(20001));
}

TEST(EnvironmentMon, GlitchDetectedOnceAndRecovery) {
    CollectingSink sink;
    sim::Simulator sim;
    dev::PowerSensor power("pwr", sim, 3.3, 45.0);
    EnvironmentMonitor monitor(sink, sim, power,
                               EnvironmentEnvelope{3.0, 3.6, -20, 85}, 10);
    sim.add_tickable(&monitor);

    sim.run_for(100);
    EXPECT_EQ(sink.count(EventCategory::kEnvironment), 0u);

    power.inject_glitch(1.0, 40);
    sim.run_for(40);
    EXPECT_EQ(sink.count(EventCategory::kEnvironment, EventSeverity::kAlert),
              1u);
    sim.run_for(100);  // Back in envelope -> one info event.
    EXPECT_EQ(monitor.excursions(), 1u);
}

TEST(EnvironmentMon, ThermalExcursion) {
    CollectingSink sink;
    sim::Simulator sim;
    dev::PowerSensor power("pwr", sim, 3.3, 45.0);
    EnvironmentMonitor monitor(sink, sim, power,
                               EnvironmentEnvelope{3.0, 3.6, -20, 85}, 10);
    sim.add_tickable(&monitor);
    power.set_temperature(120.0);
    sim.run_for(20);
    EXPECT_TRUE(sink.saw(EventCategory::kEnvironment, EventSeverity::kAlert));
}

// --- Config monitor ---------------------------------------------------------
// Audits fall on a 200-cycle grid. An audit is made, and counted as a
// poll, only when the bus configuration generation has moved since the
// last comparison.

class ConfigMonFixture : public ::testing::Test {
protected:
    ConfigMonFixture() : ram("ram", 0x1000), secret("secret", 0x100) {
        bus.map(mem::RegionConfig{"ram", 0x0, 0x1000, false, false}, ram);
        bus.map(mem::RegionConfig{"secret", 0x8000, 0x100, true, false},
                secret);
        monitor.bind_metrics(registry);
        monitor.snapshot_golden();
    }

    /// Runs the audits due at `first`, `first + 200`, ... up to `last`.
    void audit(sim::Cycle first, sim::Cycle last) {
        for (sim::Cycle c = first; c <= last; c += 200) monitor.tick(c);
    }

    [[nodiscard]] std::uint64_t polls() const {
        return registry
            .find_counter("cres_monitor_polls_total{monitor=\"config-monitor\"}")
            ->value();
    }

    CollectingSink sink;
    sim::Simulator sim;
    mem::Bus bus;
    mem::Ram ram;
    mem::Ram secret;
    obs::MetricsRegistry registry;
    ConfigMonitor monitor{sink, sim, bus, 200};
};

TEST_F(ConfigMonFixture, DriftReportedAtFirstAuditAndRestoreFollowsRevert) {
    audit(200, 400);
    EXPECT_TRUE(sink.events.empty());

    ASSERT_TRUE(bus.set_secure_only("secret", false));
    audit(600, 600);
    ASSERT_EQ(sink.events.size(), 1u);
    EXPECT_EQ(sink.events[0].severity, EventSeverity::kCritical);
    EXPECT_EQ(sink.events[0].resource, "secret");
    EXPECT_EQ(monitor.drifts_detected(), 1u);

    audit(800, 1000);  // Latched: no repeat while the drift persists.
    EXPECT_EQ(sink.events.size(), 1u);

    ASSERT_TRUE(bus.set_secure_only("secret", true));
    audit(1200, 1200);
    ASSERT_EQ(sink.events.size(), 2u);
    EXPECT_EQ(sink.events[1].severity, EventSeverity::kInfo);
    EXPECT_EQ(sink.events[1].resource, "secret");
    EXPECT_EQ(sink.events[1].at, 1200u);
}

TEST_F(ConfigMonFixture, ChangeRevertedBetweenAuditsIsSilent) {
    audit(200, 200);
    ASSERT_TRUE(bus.set_secure_only("secret", false));
    ASSERT_TRUE(bus.set_secure_only("secret", true));
    audit(400, 1000);
    EXPECT_TRUE(sink.events.empty());
    EXPECT_EQ(monitor.drifts_detected(), 0u);
}

TEST_F(ConfigMonFixture, UnchangedAuditsAreNotPolls) {
    EXPECT_EQ(monitor.next_activity(0), sim::Tickable::kIdleForever);
    audit(200, 200);  // Nothing moved: the audit compares nothing.
    EXPECT_EQ(polls(), 0u);

    ASSERT_TRUE(bus.set_secure_only("secret", false));
    EXPECT_EQ(monitor.next_activity(250), 400u);
    audit(400, 1000);
    EXPECT_EQ(polls(), 1u);
    ASSERT_EQ(sink.events.size(), 1u);
    EXPECT_EQ(sink.events[0].at, 400u);
    EXPECT_EQ(sink.events[0].severity, EventSeverity::kCritical);
    EXPECT_EQ(monitor.next_activity(1001), sim::Tickable::kIdleForever);
}

// A monitor built after `period` audits first at its construction
// cycle and keeps that grid.
TEST_F(ConfigMonFixture, BuiltLateAuditsOnItsOwnGrid) {
    sim.run_for(350);
    ConfigMonitor late(sink, sim, bus, 200);  // Audits at 350, 550...
    late.snapshot_golden();
    sim.add_tickable(&late);
    sim.schedule_at(400, "tamper",
                    [this] { (void)bus.set_secure_only("secret", false); });
    sim.run_until(1000);
    ASSERT_EQ(sink.events.size(), 1u);
    EXPECT_EQ(sink.events[0].at, 550u);
    EXPECT_EQ(late.drifts_detected(), 1u);
}

// --- Read phase ---------------------------------------------------------------
// The sensor and the power sensor are not ticked; their state follows
// the clock. A bus access or an event during cycle `c` sees them as of
// the start of `c`; a monitor polling during `c` also sees cycle `c`'s
// sample or glitch end (docs/SCHEDULER.md, "Read phase").

TEST(ReadPhase, BusSeesEarlierSamplesAndMonitorSeesThisCycles) {
    CollectingSink sink;
    sim::Simulator sim;
    mem::Bus bus;
    dev::Sensor sensor(
        "grid", sim, [](sim::Cycle c) { return static_cast<double>(c); },
        10);
    bus.map(mem::RegionConfig{"grid", 0x7000, 0x100, false, false}, sensor);
    PeripheralMonitor monitor(sink, sim, bus);
    monitor.watch_sensor(sensor, SensorEnvelope{0.0, 5.0, 100.0}, 10);
    sim.add_tickable(&monitor);

    std::optional<std::uint32_t> seen;
    sim.schedule_at(9, "read-samples", [&] {
        seen = bus.read(0x7000 + dev::Sensor::kRegSamples, 4, kNormal);
    });
    sim.run_for(10);

    ASSERT_TRUE(seen.has_value());
    EXPECT_EQ(*seen, 0u);  // Cycle 9's sample is not taken yet.
    ASSERT_EQ(sink.count(EventCategory::kPeripheral), 1u);
    EXPECT_EQ(sink.events[0].at, 9u);
    EXPECT_EQ(sink.events[0].severity, EventSeverity::kAlert);
    EXPECT_EQ(sink.events[0].a, static_cast<std::uint64_t>(
                                    static_cast<std::uint32_t>(
                                        dev::to_fixed(9.0))));
}

TEST(ReadPhase, MonitorSeesGlitchEndInItsLastCycle) {
    CollectingSink sink;
    sim::Simulator sim;
    dev::PowerSensor power("pwr", sim, 3.3, 45.0);
    EnvironmentMonitor monitor(sink, sim, power,
                               EnvironmentEnvelope{3.0, 3.6, -20, 85}, 10);
    sim.add_tickable(&monitor);

    sim.run_for(100);
    power.inject_glitch(1.0, 40);  // Cycles 100..139.
    sim.run_for(39);
    EXPECT_TRUE(power.glitch_active());  // now() == 139.
    sim.run_for(1);

    ASSERT_EQ(sink.events.size(), 2u);
    EXPECT_EQ(sink.events[0].at, 109u);
    EXPECT_EQ(sink.events[0].severity, EventSeverity::kAlert);
    EXPECT_EQ(sink.events[1].at, 139u);
    EXPECT_EQ(sink.events[1].severity, EventSeverity::kInfo);
}

TEST(ReadPhase, ShorterPeriodPullsThePendingSampleIn) {
    sim::Simulator sim;
    mem::Bus bus;
    dev::Sensor sensor(
        "grid", sim, [](sim::Cycle c) { return static_cast<double>(c); },
        100);
    bus.map(mem::RegionConfig{"grid", 0x7000, 0x100, false, false}, sensor);
    sim.schedule_at(50, "set-period", [&] {
        (void)bus.write(0x7000 + dev::Sensor::kRegPeriod, 4, 10, kNormal);
    });

    sim.run_for(59);
    EXPECT_EQ(sensor.samples(), 0u);
    sim.run_for(1);
    EXPECT_EQ(sensor.samples(), 1u);
    EXPECT_NEAR(sensor.value(), 59.0, 1e-3);
    sim.run_for(10);
    EXPECT_EQ(sensor.samples(), 2u);
    EXPECT_NEAR(sensor.value(), 69.0, 1e-3);
}

TEST(RedundancyMon, LockstepDivergenceDetected) {
    CollectingSink sink;
    sim::Simulator sim;
    mem::Bus bus_a, bus_b;
    mem::Ram ram_a("ram", 0x1000), ram_b("ram", 0x1000);
    bus_a.map(mem::RegionConfig{"ram", 0, 0x1000, false, false}, ram_a);
    bus_b.map(mem::RegionConfig{"ram", 0, 0x1000, false, false}, ram_b);
    isa::Cpu primary("cpu0", bus_a), shadow("cpu0s", bus_b);

    const isa::Program p = isa::assemble(R"(
    loop:
        addi r1, r1, 1
        j loop
    )");
    ram_a.load(0, p.code);
    ram_b.load(0, p.code);
    primary.reset(0);
    shadow.reset(0);

    RedundancyMonitor monitor(sink, sim, primary, shadow, 16);
    sim.add_tickable(&primary);
    sim.add_tickable(&shadow);
    sim.add_tickable(&monitor);

    sim.run_for(200);
    EXPECT_EQ(monitor.divergences(), 0u);

    // Single-event upset / targeted attack on the primary only.
    primary.set_reg(1, 0xdeadbeef);
    sim.run_for(100);
    EXPECT_EQ(monitor.divergences(), 1u);
    EXPECT_TRUE(sink.saw(EventCategory::kMemory, EventSeverity::kCritical));
}

}  // namespace
}  // namespace cres::core
