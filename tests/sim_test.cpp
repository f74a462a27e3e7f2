// Simulation-kernel tests: event ordering, tickables.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/error.h"

namespace cres::sim {
namespace {

class Counter : public Tickable {
public:
    void tick(Cycle) override { ++ticks; }
    int ticks = 0;
};

TEST(Simulator, StartsAtCycleZero) {
    Simulator sim;
    EXPECT_EQ(sim.now(), 0u);
}

TEST(Simulator, RunForAdvancesClock) {
    Simulator sim;
    sim.run_for(10);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, TickablesTickedEveryCycle) {
    Simulator sim;
    Counter c;
    sim.add_tickable(&c);
    sim.run_for(5);
    EXPECT_EQ(c.ticks, 5);
}

TEST(Simulator, RemoveTickableStopsTicks) {
    Simulator sim;
    Counter c;
    sim.add_tickable(&c);
    sim.run_for(3);
    sim.remove_tickable(&c);
    sim.run_for(3);
    EXPECT_EQ(c.ticks, 3);
}

TEST(Simulator, NullTickableRejected) {
    Simulator sim;
    EXPECT_THROW(sim.add_tickable(nullptr), SimError);
}

TEST(Simulator, EventFiresAtScheduledCycle) {
    Simulator sim;
    Cycle fired_at = 0;
    sim.schedule_at(7, "e", [&] { fired_at = sim.now(); });
    sim.run_for(10);
    EXPECT_EQ(fired_at, 7u);
}

TEST(Simulator, ScheduleInIsRelative) {
    Simulator sim;
    sim.run_for(5);
    Cycle fired_at = 0;
    sim.schedule_in(3, "e", [&] { fired_at = sim.now(); });
    sim.run_for(10);
    EXPECT_EQ(fired_at, 8u);
}

TEST(Simulator, SameCycleEventsRunInOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(2, "a", [&] { order.push_back(1); });
    sim.schedule_at(2, "b", [&] { order.push_back(2); });
    sim.schedule_at(1, "c", [&] { order.push_back(0); });
    sim.run_for(5);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Simulator, PastSchedulingRejected) {
    Simulator sim;
    sim.run_for(10);
    EXPECT_THROW(sim.schedule_at(5, "late", [] {}), SimError);
}

TEST(Simulator, EventMayScheduleMoreEvents) {
    Simulator sim;
    int fired = 0;
    sim.schedule_at(1, "outer", [&] {
        ++fired;
        sim.schedule_in(2, "inner", [&] { ++fired; });
    });
    sim.run_for(10);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.events_fired(), 2u);
}

TEST(Simulator, RunUntilStopsAtTarget) {
    Simulator sim;
    sim.run_until(42);
    EXPECT_EQ(sim.now(), 42u);
    sim.run_until(10);  // No-op when already past.
    EXPECT_EQ(sim.now(), 42u);
}

TEST(Simulator, IdleReflectsQueue) {
    Simulator sim;
    EXPECT_TRUE(sim.idle());
    sim.schedule_at(100, "later", [] {});
    EXPECT_FALSE(sim.idle());
    sim.run_for(101);
    EXPECT_TRUE(sim.idle());
}

// Ticks every `period` cycles and implements the quiescence protocol;
// skip() reproduces the state of the elided (non-firing) ticks.
class Periodic : public Tickable {
public:
    explicit Periodic(Cycle period) : period_(period) {}

    void tick(Cycle now) override {
        ++ticks;
        last = now;
        if (now % period_ == 0) ++fires;
    }
    Cycle next_activity(Cycle now) override {
        if (now % period_ == 0) return now;
        return now + (period_ - now % period_);
    }
    void skip(Cycle now, Cycle cycles) override {
        ticks += static_cast<int>(cycles);
        last = now + cycles - 1;
    }

    Cycle period_;
    int ticks = 0;
    int fires = 0;
    Cycle last = 0;
};

TEST(Quiescence, FastForwardMatchesPerCycleExecution) {
    Simulator fast;
    Simulator slow;
    slow.set_quiescence(false);
    Periodic fast_p(97);
    Periodic slow_p(97);
    fast.add_tickable(&fast_p);
    slow.add_tickable(&slow_p);

    fast.run_for(1000);
    slow.run_for(1000);

    EXPECT_EQ(fast.now(), slow.now());
    EXPECT_EQ(fast_p.ticks, slow_p.ticks);
    EXPECT_EQ(fast_p.fires, slow_p.fires);
    EXPECT_EQ(fast_p.last, slow_p.last);
    EXPECT_GT(fast.cycles_skipped(), 0u);
    EXPECT_EQ(slow.cycles_skipped(), 0u);
}

TEST(Quiescence, EventsFireAtExactCyclesAcrossSkips) {
    Simulator sim;
    Periodic p(1000);  // Idle almost always: events bound the jumps.
    sim.add_tickable(&p);
    std::vector<Cycle> fired;
    sim.schedule_at(37, "a", [&] { fired.push_back(sim.now()); });
    sim.schedule_at(612, "b", [&] { fired.push_back(sim.now()); });
    sim.schedule_at(613, "c", [&] { fired.push_back(sim.now()); });
    sim.run_for(700);
    EXPECT_EQ(fired, (std::vector<Cycle>{37, 612, 613}));
    EXPECT_EQ(sim.now(), 700u);
    EXPECT_GT(sim.cycles_skipped(), 0u);
}

TEST(Quiescence, DefaultTickableIsAlwaysActive) {
    // Tickables that don't implement the protocol keep per-cycle
    // semantics, pinning the whole simulator to per-cycle stepping.
    Simulator sim;
    Counter c;
    sim.add_tickable(&c);
    sim.run_for(50);
    EXPECT_EQ(c.ticks, 50);
    EXPECT_EQ(sim.cycles_skipped(), 0u);
}

TEST(Quiescence, IdleForeverTickableJumpsToTarget) {
    class Dormant : public Tickable {
    public:
        void tick(Cycle) override { ++ticks; }
        Cycle next_activity(Cycle) override { return kIdleForever; }
        void skip(Cycle, Cycle) override {}
        int ticks = 0;
    };
    Simulator sim;
    Dormant d;
    sim.add_tickable(&d);
    sim.run_for(10000);
    EXPECT_EQ(sim.now(), 10000u);
    EXPECT_EQ(d.ticks, 0);
    EXPECT_EQ(sim.cycles_skipped(), 10000u);
}

TEST(Quiescence, DisabledKnobForcesPerCycle) {
    Simulator sim;
    sim.set_quiescence(false);
    EXPECT_FALSE(sim.quiescence());
    Periodic p(100);
    sim.add_tickable(&p);
    sim.run_for(500);
    EXPECT_EQ(p.ticks, 500);
    EXPECT_EQ(sim.cycles_skipped(), 0u);
}

// --- CPU bursts ---------------------------------------------------------------
// A lead (first-registered, always active) tickable plus periodic
// pollers, all logging their visible work as (id, cycle) into one
// shared log, so the interleaving is compared too. A quiescent run
// lets the lead burst; it must leave the same log as per-cycle stepping.

using TickLog = std::vector<std::pair<int, Cycle>>;

class Lead : public Tickable {
public:
    explicit Lead(TickLog& log) : log_(log) {}
    void tick(Cycle now) override { log_.emplace_back(0, now); }

protected:
    TickLog& log_;
};

// Bursts through every cycle except those in `stops` (standing in for
// a CPU's loads, stores and system ops).
class BurstingLead : public Lead {
public:
    BurstingLead(TickLog& log, std::set<Cycle> stops)
        : Lead(log), stops_(std::move(stops)) {}
    bool burst_ready(Cycle now) override { return stops_.count(now) == 0; }
    void burst(Cycle& now, Cycle horizon) override {
        while (now < horizon && stops_.count(now) == 0) tick(now++);
    }

private:
    std::set<Cycle> stops_;
};

// Claims it can burst but keeps the default burst(), which ticks nothing.
class ZeroCycleLead : public Lead {
public:
    using Lead::Lead;
    bool burst_ready(Cycle) override { return true; }
};

enum class LeadKind { kPlain, kZeroCycle, kBursting };

class Poller : public Periodic {
public:
    Poller(TickLog& log, int id, Cycle period)
        : Periodic(period), log_(log), id_(id) {}
    void tick(Cycle now) override {
        Periodic::tick(now);
        if (now % period_ == 0) log_.emplace_back(id_, now);
    }

private:
    TickLog& log_;
    int id_;
};

struct BurstRun {
    TickLog log;
    int poller_ticks = 0;
    std::uint64_t cycles_burst = 0;
    std::uint64_t cycles_skipped = 0;
};

// Runs a lead plus pollers of periods 7, 13 and 97 for `cycles`, with
// events (id 9) at `events`, each scheduling another (id 8) 4 cycles on.
BurstRun run_burst_scenario(bool quiescence, LeadKind kind,
                            std::set<Cycle> stops, Cycle cycles,
                            const std::vector<Cycle>& events) {
    BurstRun out;
    Simulator sim;
    sim.set_quiescence(quiescence);
    BurstingLead bursting_lead(out.log, std::move(stops));
    ZeroCycleLead zero_cycle_lead(out.log);
    Lead plain_lead(out.log);
    Poller p7(out.log, 1, 7);
    Poller p13(out.log, 2, 13);
    Poller p97(out.log, 3, 97);
    Tickable* lead = &plain_lead;
    if (kind == LeadKind::kZeroCycle) lead = &zero_cycle_lead;
    if (kind == LeadKind::kBursting) lead = &bursting_lead;
    sim.add_tickable(lead);
    sim.add_tickable(&p7);
    sim.add_tickable(&p13);
    sim.add_tickable(&p97);
    for (const Cycle at : events) {
        sim.schedule_at(at, "e", [&out, &sim] {
            out.log.emplace_back(9, sim.now());
            sim.schedule_in(4, "chained",
                            [&out, &sim] { out.log.emplace_back(8, sim.now()); });
        });
    }
    sim.run_for(cycles);
    EXPECT_EQ(sim.now(), cycles);
    out.poller_ticks = p7.ticks + p13.ticks + p97.ticks;
    out.cycles_burst = sim.cycles_burst();
    out.cycles_skipped = sim.cycles_skipped();
    return out;
}

TEST(Burst, TickLogsMatchPerCycle) {
    constexpr LeadKind kLead = LeadKind::kBursting;
    const BurstRun slow = run_burst_scenario(false, kLead, {}, 1000, {});
    const BurstRun fast = run_burst_scenario(true, kLead, {}, 1000, {});
    EXPECT_EQ(fast.log, slow.log);
    EXPECT_EQ(fast.poller_ticks, slow.poller_ticks);
    EXPECT_EQ(slow.cycles_burst, 0u);
    // Every cycle where no poller is due runs inside a burst.
    EXPECT_GT(fast.cycles_burst, 700u);
    EXPECT_EQ(fast.cycles_skipped, 0u);  // The lead is never idle.
}

TEST(Burst, EventsAndPollerWakesLandAtExactCycles) {
    // Events mid-horizon (including one 4 cycles after each, scheduled
    // from inside an event) end the burst at their exact cycle.
    const std::vector<Cycle> events = {5, 40, 333, 334, 801};
    constexpr LeadKind kLead = LeadKind::kBursting;
    const BurstRun slow = run_burst_scenario(false, kLead, {}, 1000, events);
    const BurstRun fast = run_burst_scenario(true, kLead, {}, 1000, events);
    EXPECT_EQ(fast.log, slow.log);
    EXPECT_EQ(fast.poller_ticks, slow.poller_ticks);
    EXPECT_GT(fast.cycles_burst, 0u);

    std::vector<Cycle> fired;
    std::vector<Cycle> p97;
    for (const auto& [id, at] : fast.log) {
        if (id == 9 || id == 8) fired.push_back(at);
        if (id == 3) p97.push_back(at);
    }
    EXPECT_EQ(fired, (std::vector<Cycle>{5, 9, 40, 44, 333, 334, 337, 338,
                                         801, 805}));
    EXPECT_EQ(p97, (std::vector<Cycle>{0, 97, 194, 291, 388, 485, 582, 679,
                                       776, 873, 970}));
}

TEST(Burst, LeadStoppingShortStepsThatCycle) {
    // The lead refuses to burst through some cycles (a CPU at a load or
    // store): a burst reaching one stops short, and a cycle starting at
    // one is not burst_ready(). Either way the kernel steps that cycle
    // with every component.
    const std::set<Cycle> stops = {0, 1, 2, 50, 51, 52, 53, 400, 999};
    constexpr LeadKind kLead = LeadKind::kBursting;
    const BurstRun slow = run_burst_scenario(false, kLead, stops, 1000, {});
    const BurstRun fast = run_burst_scenario(true, kLead, stops, 1000, {});
    EXPECT_EQ(fast.log, slow.log);
    EXPECT_EQ(fast.poller_ticks, slow.poller_ticks);
    EXPECT_GT(fast.cycles_burst, 0u);
}

TEST(Burst, ZeroCycleLeadFallsBackToStep) {
    // A lead that claims burst_ready() but runs nothing alone, and one
    // that never claims it: every cycle is a normal step and the result
    // is still per-cycle exact.
    for (const LeadKind kind : {LeadKind::kZeroCycle, LeadKind::kPlain}) {
        const BurstRun slow = run_burst_scenario(false, kind, {}, 500, {17});
        const BurstRun fast = run_burst_scenario(true, kind, {}, 500, {17});
        EXPECT_EQ(fast.log, slow.log);
        EXPECT_EQ(fast.poller_ticks, slow.poller_ticks);
        EXPECT_EQ(fast.cycles_burst, 0u);
        EXPECT_EQ(fast.cycles_skipped, 0u);
    }
}

TEST(Simulator, AddDuringTickStartsNextCycle) {
    class Adder : public Tickable {
    public:
        Adder(Simulator& sim, Tickable* child) : sim_(sim), child_(child) {}
        void tick(Cycle) override {
            if (!added_) {
                added_ = true;
                sim_.add_tickable(child_);
            }
        }

    private:
        Simulator& sim_;
        Tickable* child_;
        bool added_ = false;
    };
    Simulator sim;
    Counter child;
    Adder adder(sim, &child);
    sim.add_tickable(&adder);
    sim.run_for(4);
    EXPECT_EQ(child.ticks, 3);  // Missed the cycle it was added on.
}

TEST(Simulator, RemoveMiddleTickableKeepsOthersTicking) {
    Simulator sim;
    Counter a;
    Counter b;
    Counter c;
    sim.add_tickable(&a);
    sim.add_tickable(&b);
    sim.add_tickable(&c);
    sim.run_for(2);
    sim.remove_tickable(&b);
    sim.run_for(2);
    EXPECT_EQ(a.ticks, 4);
    EXPECT_EQ(b.ticks, 2);
    EXPECT_EQ(c.ticks, 4);
}

TEST(Simulator, LargeCaptureEventFires) {
    // Callables past the inline small-buffer bound take the boxed path.
    Simulator sim;
    std::array<std::uint64_t, 16> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 3;
    std::uint64_t sum = 0;
    sim.schedule_at(5, "big", [payload, &sum] {
        for (const auto v : payload) sum += v;
    });
    sim.run_for(10);
    EXPECT_EQ(sum, 360u);
}

TEST(Simulator, PastScheduleErrorNamesTheLabel) {
    Simulator sim;
    sim.run_for(10);
    try {
        sim.schedule_at(5, "late-label", [] {});
        FAIL() << "expected SimError";
    } catch (const SimError& e) {
        EXPECT_NE(std::string(e.what()).find("late-label"),
                  std::string::npos);
    }
}

}  // namespace
}  // namespace cres::sim
