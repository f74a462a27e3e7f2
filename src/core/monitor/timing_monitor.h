// Timing / liveness monitor: tasks declare heartbeat deadlines; the
// monitor raises escalating events when a task goes quiet (hang, kill,
// watchdog starvation, control-loop stall). Unlike a plain watchdog,
// the event carries *which* task missed *by how much* — the
// fine-grained visibility the paper requires. A poll is one heartbeat
// of a registered task, so the poll-gap histogram holds the heartbeat
// intervals.
#pragma once

#include <map>
#include <string>

#include "core/monitor/monitor.h"

namespace cres::core {

class TimingMonitor : public Monitor, public sim::Tickable {
public:
    TimingMonitor(EventSink& sink, const sim::Simulator& sim);

    std::string description() const override {
        return "per-task heartbeat deadlines with escalating "
               "missed-deadline events";
    }

    /// Registers a task that must heartbeat at least every `deadline`
    /// cycles.
    void register_task(const std::string& task, sim::Cycle deadline);

    /// Called by the task (via OS service hook) on each iteration; a
    /// registered task's heartbeat is one poll.
    void heartbeat(const std::string& task);

    /// Stops watching (task killed deliberately).
    void unregister_task(const std::string& task);

    void tick(sim::Cycle now) override;

    /// Quiescence: wakes when the earliest non-overdue deadline can
    /// first be missed (kIdleForever when every task is overdue); a
    /// tick before that changes nothing.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override;

    [[nodiscard]] std::uint64_t missed_deadlines(const std::string& task) const;

private:
    struct Watch {
        sim::Cycle deadline;
        sim::Cycle last_heartbeat;
        std::uint64_t missed = 0;
        bool overdue = false;
    };

    const sim::Simulator& sim_;
    std::map<std::string, Watch> tasks_;
};

}  // namespace cres::core
