// Environment monitor: polls the power/thermal sensor against the
// provisioned operating envelope. Voltage excursions (glitch attacks)
// and thermal runaway raise events.
#pragma once

#include "core/monitor/monitor.h"
#include "dev/power.h"

namespace cres::core {

struct EnvironmentEnvelope {
    double min_voltage = 3.0;
    double max_voltage = 3.6;
    double min_temp = -20.0;
    double max_temp = 85.0;
};

class EnvironmentMonitor : public Monitor, public sim::Tickable {
public:
    EnvironmentMonitor(EventSink& sink, const sim::Simulator& sim,
                       dev::PowerSensor& sensor,
                       const EnvironmentEnvelope& envelope,
                       std::uint32_t period = 50);

    std::string description() const override {
        return "voltage/temperature envelope watch (glitch and thermal "
               "attack detection)";
    }

    void tick(sim::Cycle now) override;

    /// Quiescence: polls fire at an absolute cycle, the first one
    /// `period - 1` cycles after construction; ticks before it are
    /// no-ops.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override {
        return next_poll_ > now ? next_poll_ : now;
    }

    [[nodiscard]] std::uint64_t excursions() const noexcept {
        return excursions_;
    }

private:
    const sim::Simulator& sim_;
    dev::PowerSensor& sensor_;
    EnvironmentEnvelope envelope_;
    std::uint32_t period_;
    sim::Cycle next_poll_;
    bool in_excursion_ = false;
    std::uint64_t excursions_ = 0;
};

}  // namespace cres::core
