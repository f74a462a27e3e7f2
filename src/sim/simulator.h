// Discrete-event / cycle-stepped simulation kernel.
//
// The platform uses a hybrid model: components that need per-cycle
// behaviour (CPU, DMA, watchdog, monitors) register as Tickables and are
// stepped on every cycle; sporadic behaviour (timer expiry, attack
// injection, network delivery) is scheduled on the event queue.
//
// Quiescence (docs/SCHEDULER.md): a Tickable may additionally report
// when its next architecturally visible work is due via
// next_activity(). When every registered component is quiescent and no
// event is due, run_until() fast-forwards the clock to the earliest
// wake point instead of cycle-stepping, after asking each component to
// skip() the gap. skip() must leave the component bit-identical to
// having ticked every skipped cycle — the fast path is a scheduling
// optimisation, never a semantics change. When only the first
// registered component (the CPU) is active and burst_ready(),
// run_until() instead lets it tick alone via burst() up to the earliest other wake or event, and
// then skip()s every other component over the burst.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace cres::sim {

/// Simulated time, in clock cycles.
using Cycle = std::uint64_t;

/// First cycle >= now on the grid origin + k * period (k >= 0).
[[nodiscard]] constexpr Cycle next_on_grid(Cycle now, Cycle origin,
                                           Cycle period) noexcept {
    if (now <= origin) return origin;
    const Cycle late = (now - origin) % period;
    return late == 0 ? now : now + period - late;
}

/// A component stepped once per simulated cycle.
///
/// Quiescence contract: next_activity(now) may return
///  - `now`            — the component does architecturally visible work
///                       this cycle; the kernel must step per-cycle.
///  - a cycle `w > now` — every tick in [now, w) is replicable by
///                       skip(); the first visible work is at `w`.
///  - `kIdleForever`   — no tick does visible work until some external
///                       input (bus write, IRQ, event) re-arms the
///                       component; ticks are still replicated by
///                       skip().
/// When the kernel jumps from `now` to `now + n` (with
/// `now + n <= next_activity(now)` for every component), it calls
/// skip(now, n) on each component, which must reproduce the exact state
/// n consecutive tick(now)..tick(now+n-1) calls would have produced.
/// skip() must not register/unregister tickables or schedule events.
class Tickable {
public:
    /// next_activity() sentinel: quiescent until externally re-armed.
    static constexpr Cycle kIdleForever = ~Cycle{0};

    virtual ~Tickable() = default;
    virtual void tick(Cycle now) = 0;

    /// Earliest cycle >= now at which tick() does architecturally
    /// visible work. Defaults to `now` (always active), so components
    /// that do not implement the protocol simply disable fast-forward.
    [[nodiscard]] virtual Cycle next_activity(Cycle now) { return now; }

    /// Replays `cycles` consecutive quiescent ticks starting at `now`
    /// in O(1): a quiescent tick at most advances a counter, as no
    /// component polls when it could observe nothing new. Only called
    /// when `now + cycles <= next_activity(now)` held at the jump
    /// decision.
    virtual void skip(Cycle now, Cycle cycles) {
        (void)now;
        (void)cycles;
    }

    /// Whether the tick at `now` could run inside burst(). Asked only of
    /// the first registered tickable while it is active, before the
    /// kernel looks at any other component, so a lead that cannot burst
    /// costs one call. The default never bursts.
    [[nodiscard]] virtual bool burst_ready(Cycle now) {
        (void)now;
        return false;
    }

    /// Ticks this component alone for consecutive cycles from `now`,
    /// incrementing `now` (the kernel's clock) after each one, and stops
    /// at `horizon` or before any cycle whose tick could touch another
    /// component. Only called on the first registered tickable, right
    /// after burst_ready(now) returned true, when every other one is
    /// quiescent until `horizon`. A burst that ticks nothing falls back
    /// to a per-cycle step().
    virtual void burst(Cycle& now, Cycle horizon) {
        (void)now;
        (void)horizon;
    }
};

/// The simulation kernel: owns the clock, the event queue and the list
/// of per-cycle components. Not thread-safe and deliberately free of
/// global state: every mutable field lives on the instance, so a
/// kernel is thread-confined — the parallel fleet runner gives each
/// device-node's simulator to exactly one worker per phase and needs
/// no locks on the hot path. One kernel per scenario/node.
class Simulator {
public:
    Simulator() = default;

    /// Current simulated time.
    [[nodiscard]] Cycle now() const noexcept { return now_; }

    /// Registers a per-cycle component. The pointer must outlive the
    /// simulator run (platform objects own their components).
    /// Registration during a tick takes effect next cycle.
    void add_tickable(Tickable* component);

    /// Removes a previously registered component. Must not be called
    /// from inside tick().
    void remove_tickable(Tickable* component) noexcept;

    /// Schedules `action` to run at absolute cycle `at` (>= now).
    /// Events at the same cycle run in scheduling order. The label only
    /// names the event in the error raised for a cycle in the past.
    void schedule_at(Cycle at, std::string_view label,
                     std::function<void()> action);

    /// Schedules `action` to run `delta` cycles from now.
    void schedule_in(Cycle delta, std::string_view label,
                     std::function<void()> action);

    /// Advances exactly one cycle: fires due events, then ticks all
    /// components.
    void step();

    /// Advances `cycles` cycles.
    void run_for(Cycle cycles);

    /// Advances until now() == target (no-op when already past). With
    /// quiescence enabled (the default) stretches where every component
    /// is idle and no event is due are skipped in one jump, and
    /// stretches where only the first component is active run as its
    /// burst(); results are bit-identical to per-cycle stepping
    /// (docs/SCHEDULER.md).
    void run_until(Cycle target);

    /// Enables/disables quiescence fast-forward (differential testing).
    void set_quiescence(bool enabled) noexcept { quiescence_ = enabled; }
    [[nodiscard]] bool quiescence() const noexcept { return quiescence_; }

    /// True when the event queue is empty.
    [[nodiscard]] bool idle() const noexcept { return events_.empty(); }

    /// Number of events executed so far (telemetry).
    [[nodiscard]] std::uint64_t events_fired() const noexcept {
        return events_fired_;
    }

    /// Cycles fast-forwarded (not individually stepped) so far.
    [[nodiscard]] std::uint64_t cycles_skipped() const noexcept {
        return cycles_skipped_;
    }

    /// Cycles the first component ran alone in bursts so far.
    [[nodiscard]] std::uint64_t cycles_burst() const noexcept {
        return cycles_burst_;
    }

private:
    struct Event {
        Cycle at;
        std::uint64_t seq;
        std::function<void()> action;
    };
    struct EventLater {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.at != b.at) return a.at > b.at;
            return a.seq > b.seq;
        }
    };

    void fire_due_events();
    /// Earliest quiescent wake across tickables, capped at `limit`;
    /// returns now_ when any component is active this cycle, except a
    /// first component that is burst_ready(). `lead_bursts` reports that
    /// exception; the first component's wake is then left out.
    [[nodiscard]] Cycle earliest_wake(Cycle limit, bool& lead_bursts);

    Cycle now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t events_fired_ = 0;
    std::uint64_t cycles_skipped_ = 0;
    std::uint64_t cycles_burst_ = 0;
    bool quiescence_ = true;
    std::priority_queue<Event, std::vector<Event>, EventLater> events_;
    std::vector<Tickable*> tickables_;
};

}  // namespace cres::sim
