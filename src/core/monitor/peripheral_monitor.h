// Peripheral behaviour monitor: physical-plausibility envelope for
// actuators and sensors.
//  - Actuator: command range, slew-rate and command-rate limits.
//  - Sensor: value range and maximum rate-of-change; a spoofed feed
//    that jumps outside the physical envelope is flagged.
#pragma once

#include <optional>

#include "core/monitor/monitor.h"
#include "core/window.h"
#include "dev/actuator.h"
#include "dev/sensor.h"
#include "mem/bus.h"

namespace cres::core {

/// Plausibility envelope for one actuator.
struct ActuatorEnvelope {
    double min_command = 0.0;
    double max_command = 0.0;
    double max_slew = 0.0;         ///< Max |delta| between commands.
    std::uint32_t max_rate = 0;    ///< Max commands per window.
    sim::Cycle rate_window = 1000;
};

/// Plausibility envelope for one sensor.
struct SensorEnvelope {
    double min_value = 0.0;
    double max_value = 0.0;
    double max_step = 0.0;  ///< Max |delta| between consecutive samples.
};

class PeripheralMonitor : public Monitor, public mem::BusObserver,
                          public sim::Tickable {
public:
    PeripheralMonitor(EventSink& sink, const sim::Simulator& sim,
                      mem::Bus& bus);
    ~PeripheralMonitor() override;

    std::string description() const override {
        return "actuator command range/slew/rate envelope and sensor "
               "value plausibility checks";
    }

    /// Watches the actuator mapped at bus region `region` with command
    /// register at absolute address `command_addr`.
    void watch_actuator(const std::string& region, mem::Addr command_addr,
                        const ActuatorEnvelope& envelope);

    /// Polls `sensor` every `period` cycles against the envelope, the
    /// first time `period - 1` cycles from now. Throws Error for a zero
    /// period.
    void watch_sensor(dev::Sensor& sensor, const SensorEnvelope& envelope,
                      std::uint32_t period = 100);

    void on_transaction(const mem::BusTransaction& txn) override;
    void tick(sim::Cycle now) override;

    /// Quiescence: actuator envelopes are transaction-driven (stepped
    /// cycles only); sensor polls wake at the earliest absolute poll
    /// cycle. A disabled monitor skips its polls: re-enabled with a
    /// poll overdue, it polls on the first stepped cycle, as
    /// CacheMonitor does.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override;

private:
    struct ActuatorWatch {
        std::string region;
        mem::Addr command_addr;
        ActuatorEnvelope envelope;
        std::optional<double> last_command;
        SlidingWindow recent_commands;
    };
    struct SensorWatch {
        dev::Sensor* sensor;
        SensorEnvelope envelope;
        std::uint32_t period;
        sim::Cycle next_poll;
        std::optional<double> last_value;
    };

    const sim::Simulator& sim_;
    mem::Bus& bus_;
    std::vector<ActuatorWatch> actuators_;
    std::vector<SensorWatch> sensors_;
};

}  // namespace cres::core
