#include "core/monitor/config_monitor.h"

#include <algorithm>

namespace cres::core {

ConfigMonitor::ConfigMonitor(EventSink& sink, const sim::Simulator& sim,
                             mem::Bus& bus, sim::Cycle period)
    : Monitor("config-monitor", sink),
      bus_(bus),
      period_(period == 0 ? 1 : period),
      first_audit_(std::max(period_, sim.now())) {}

void ConfigMonitor::snapshot_golden() {
    golden_ = bus_.regions();
    // The bus matches the new golden, so the next audit has something
    // to report only for regions still latched as drifted: restores.
    compared_generation_ =
        drifted_.empty() ? bus_.config_generation() : kUncompared;
}

sim::Cycle ConfigMonitor::next_activity(sim::Cycle now) {
    if (golden_.empty() || bus_.config_generation() == compared_generation_) {
        return kIdleForever;
    }
    return sim::next_on_grid(now, first_audit_, period_);
}

void ConfigMonitor::tick(sim::Cycle now) {
    if (next_activity(now) != now) return;
    note_poll(now);
    compared_generation_ = bus_.config_generation();

    const auto current = bus_.regions();
    for (const auto& gold : golden_) {
        const mem::RegionConfig* live = nullptr;
        for (const auto& r : current) {
            if (r.name == gold.name) {
                live = &r;
                break;
            }
        }
        const bool drifted =
            live == nullptr || live->secure_only != gold.secure_only ||
            live->read_only != gold.read_only || live->base != gold.base ||
            live->size != gold.size;

        if (drifted && drifted_.insert(gold.name).second) {
            ++drifts_;
            emit(now, EventCategory::kBusViolation, EventSeverity::kCritical,
                 gold.name,
                 live == nullptr
                     ? "mapped region vanished from interconnect"
                     : "interconnect security attributes drifted from "
                       "golden configuration",
                 live == nullptr ? 0 : live->base, gold.base);
        } else if (!drifted && drifted_.erase(gold.name) > 0) {
            emit(now, EventCategory::kBusViolation, EventSeverity::kInfo,
                 gold.name, "region configuration restored to golden", 0, 0);
        }
    }
}

}  // namespace cres::core
