#include "core/monitor/timing_monitor.h"

namespace cres::core {

TimingMonitor::TimingMonitor(EventSink& sink, const sim::Simulator& sim)
    : Monitor("timing-monitor", sink), sim_(sim) {}

void TimingMonitor::register_task(const std::string& task,
                                  sim::Cycle deadline) {
    tasks_[task] = Watch{deadline, sim_.now(), 0, false};
}

void TimingMonitor::heartbeat(const std::string& task) {
    const auto it = tasks_.find(task);
    if (it == tasks_.end()) return;
    note_poll(sim_.now());
    it->second.last_heartbeat = sim_.now();
    if (it->second.overdue) {
        it->second.overdue = false;
        emit(sim_.now(), EventCategory::kTiming, EventSeverity::kInfo, task,
             "task resumed heartbeating", 0, 0);
    }
}

void TimingMonitor::unregister_task(const std::string& task) {
    tasks_.erase(task);
}

void TimingMonitor::tick(sim::Cycle now) {
    for (auto& [task, watch] : tasks_) {
        if (watch.overdue) continue;
        if (now > watch.last_heartbeat + watch.deadline) {
            watch.overdue = true;
            ++watch.missed;
            const sim::Cycle overdue_by = now - watch.last_heartbeat;
            // Repeated misses of the same task escalate.
            const EventSeverity severity = watch.missed >= 3
                                               ? EventSeverity::kCritical
                                               : EventSeverity::kAlert;
            emit(now, EventCategory::kTiming, severity, task,
                 "heartbeat deadline missed (overdue " +
                     std::to_string(overdue_by) + " cycles)",
                 overdue_by, watch.missed);
        }
    }
}

sim::Cycle TimingMonitor::next_activity(sim::Cycle now) {
    sim::Cycle wake = kIdleForever;
    for (const auto& [task, watch] : tasks_) {
        if (watch.overdue) continue;
        // First cycle at which now > last_heartbeat + deadline holds.
        const sim::Cycle due = watch.last_heartbeat + watch.deadline + 1;
        if (due <= now) return now;
        if (due < wake) wake = due;
    }
    return wake;
}

std::uint64_t TimingMonitor::missed_deadlines(const std::string& task) const {
    const auto it = tasks_.find(task);
    return it == tasks_.end() ? 0 : it->second.missed;
}

}  // namespace cres::core
