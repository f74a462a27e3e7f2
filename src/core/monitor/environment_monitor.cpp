#include "core/monitor/environment_monitor.h"

#include "util/error.h"

namespace cres::core {

EnvironmentMonitor::EnvironmentMonitor(EventSink& sink,
                                       const sim::Simulator& sim,
                                       dev::PowerSensor& sensor,
                                       const EnvironmentEnvelope& envelope,
                                       std::uint32_t period)
    : Monitor("environment-monitor", sink),
      sim_(sim),
      sensor_(sensor),
      envelope_(envelope),
      period_(period),
      next_poll_(sim.now() + period - 1) {
    if (period_ == 0) throw Error("EnvironmentMonitor: zero period");
}

void EnvironmentMonitor::tick(sim::Cycle now) {
    if (now < next_poll_) return;
    next_poll_ = now + period_;
    note_poll(now);

    // Polling during `now`, the monitor sees that cycle's glitch end.
    const double v = sensor_.voltage_before(now + 1);
    const double t = sensor_.temperature();
    const bool bad_v = v < envelope_.min_voltage || v > envelope_.max_voltage;
    const bool bad_t = t < envelope_.min_temp || t > envelope_.max_temp;

    if ((bad_v || bad_t) && !in_excursion_) {
        in_excursion_ = true;
        ++excursions_;
        emit(now, EventCategory::kEnvironment, EventSeverity::kAlert,
             std::string(sensor_.name()),
             bad_v ? "voltage excursion (glitch suspected)"
                   : "temperature excursion",
             static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(dev::to_fixed(v))),
             static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(dev::to_fixed(t))));
    } else if (!bad_v && !bad_t && in_excursion_) {
        in_excursion_ = false;
        emit(now, EventCategory::kEnvironment, EventSeverity::kInfo,
             std::string(sensor_.name()), "environment back in envelope", 0,
             0);
    }
}

}  // namespace cres::core
