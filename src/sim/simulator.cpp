#include "sim/simulator.h"

#include <algorithm>
#include <string>

namespace cres::sim {

void Simulator::add_tickable(Tickable* component) {
    if (component == nullptr) {
        throw SimError("add_tickable: null component");
    }
    tickables_.push_back(component);
}

void Simulator::remove_tickable(Tickable* component) noexcept {
    std::erase(tickables_, component);
}

void Simulator::schedule_at(Cycle at, std::string_view label,
                            std::function<void()> action) {
    if (at < now_) {
        throw SimError("schedule_at: cannot schedule in the past (" +
                       std::string(label) + ")");
    }
    events_.push(Event{at, next_seq_++, std::move(action)});
}

void Simulator::schedule_in(Cycle delta, std::string_view label,
                            std::function<void()> action) {
    schedule_at(now_ + delta, label, std::move(action));
}

void Simulator::fire_due_events() {
    while (!events_.empty() && events_.top().at <= now_) {
        // Move out before pop so the action may schedule more events.
        // Mutating `action` never reorders the heap: ordering depends
        // only on (at, seq).
        std::function<void()> action =
            std::move(const_cast<Event&>(events_.top()).action);
        events_.pop();
        ++events_fired_;
        action();
    }
}

void Simulator::step() {
    fire_due_events();
    // A tick may register components: they land beyond the captured
    // bound and tick from the next cycle.
    const std::size_t bound = tickables_.size();
    for (std::size_t i = 0; i < bound; ++i) tickables_[i]->tick(now_);
    ++now_;
}

void Simulator::run_for(Cycle cycles) { run_until(now_ + cycles); }

Cycle Simulator::earliest_wake(Cycle limit, bool& lead_bursts) {
    Cycle wake = limit;
    lead_bursts = false;
    for (std::size_t i = 0; i < tickables_.size(); ++i) {
        Tickable* t = tickables_[i];
        const Cycle na = t->next_activity(now_);
        if (na > now_) {
            if (na < wake) wake = na;
        } else if (i == 0 && t->burst_ready(now_)) {
            lead_bursts = true;
        } else {
            return now_;  // Active, and not a lead that can burst.
        }
    }
    return wake;
}

void Simulator::run_until(Cycle target) {
    if (!quiescence_) {
        while (now_ < target) step();
        return;
    }
    while (now_ < target) {
        // Events due this cycle force a normal step (their actions may
        // re-arm components).
        if (!events_.empty() && events_.top().at <= now_) {
            step();
            continue;
        }
        Cycle limit = target;
        if (!events_.empty() && events_.top().at < limit) {
            limit = events_.top().at;
        }
        bool lead_bursts = false;
        const Cycle wake = earliest_wake(limit, lead_bursts);
        if (wake <= now_) {
            step();
            continue;
        }
        if (lead_bursts) {
            // Only the lead has work before `wake`: it ticks alone,
            // advancing now_ itself, and every other component replays
            // the burst. Where it stops short, its next cycle may touch
            // another component, so that cycle is stepped normally.
            const Cycle start = now_;
            tickables_.front()->burst(now_, wake);
            const Cycle ran = now_ - start;
            for (std::size_t i = 1; ran != 0 && i < tickables_.size(); ++i) {
                tickables_[i]->skip(start, ran);
            }
            cycles_burst_ += ran;
            if (now_ < wake) step();
            continue;
        }
        // Every component is quiescent until `wake` and no event is
        // due before it: replay the gap in O(components) and jump.
        const Cycle skipped = wake - now_;
        for (Tickable* t : tickables_) t->skip(now_, skipped);
        now_ = wake;
        cycles_skipped_ += skipped;
    }
}

}  // namespace cres::sim
