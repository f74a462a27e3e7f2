#include "core/monitor/peripheral_monitor.h"

#include <cmath>

#include "util/error.h"

namespace cres::core {

PeripheralMonitor::PeripheralMonitor(EventSink& sink,
                                     const sim::Simulator& sim,
                                     mem::Bus& bus)
    : Monitor("peripheral-monitor", sink), sim_(sim), bus_(bus) {
    bus_.add_observer(this);
}

PeripheralMonitor::~PeripheralMonitor() {
    bus_.remove_observer(this);
}

void PeripheralMonitor::watch_actuator(const std::string& region,
                                       mem::Addr command_addr,
                                       const ActuatorEnvelope& envelope) {
    actuators_.push_back(
        ActuatorWatch{region, command_addr, envelope, std::nullopt, {}});
}

void PeripheralMonitor::watch_sensor(dev::Sensor& sensor,
                                     const SensorEnvelope& envelope,
                                     std::uint32_t period) {
    if (period == 0) throw Error("PeripheralMonitor: zero sensor period");
    sensors_.push_back(SensorWatch{&sensor, envelope, period,
                                   sim_.now() + period - 1, std::nullopt});
}

void PeripheralMonitor::on_transaction(const mem::BusTransaction& txn) {
    if (!enabled()) return;
    if (txn.response != mem::BusResponse::kOk ||
        txn.op != mem::BusOp::kWrite) {
        return;
    }
    const sim::Cycle now = sim_.now();
    note_poll(now);

    for (auto& watch : actuators_) {
        if (txn.addr != watch.command_addr) continue;
        const double command =
            dev::from_fixed(static_cast<std::int32_t>(txn.data));

        if (command < watch.envelope.min_command ||
            command > watch.envelope.max_command) {
            emit(now, EventCategory::kPeripheral, EventSeverity::kCritical,
                 watch.region, "actuator command outside safe range",
                 txn.addr, txn.data);
        } else if (watch.last_command.has_value() &&
                   std::abs(command - *watch.last_command) >
                       watch.envelope.max_slew) {
            emit(now, EventCategory::kPeripheral, EventSeverity::kAlert,
                 watch.region, "actuator slew-rate exceeded", txn.addr,
                 txn.data);
        }
        watch.last_command = command;

        const std::uint64_t commands =
            watch.recent_commands.add(now, watch.envelope.rate_window);
        if (watch.envelope.max_rate > 0 && commands > watch.envelope.max_rate) {
            emit(now, EventCategory::kPeripheral, EventSeverity::kAlert,
                 watch.region,
                 "actuator command rate exceeded (" +
                     std::to_string(commands) + " in window)",
                 txn.addr, commands);
            watch.recent_commands.clear();
        }
    }
}

void PeripheralMonitor::tick(sim::Cycle now) {
    if (!enabled()) return;
    for (auto& watch : sensors_) {
        if (now < watch.next_poll) continue;
        watch.next_poll = now + watch.period;
        note_poll(now);
        // Polling during `now`, the monitor sees that cycle's sample.
        const double value = watch.sensor->value_before(now + 1);

        if (value < watch.envelope.min_value ||
            value > watch.envelope.max_value) {
            emit(now, EventCategory::kPeripheral, EventSeverity::kAlert,
                 std::string(watch.sensor->name()),
                 "sensor value outside physical envelope",
                 static_cast<std::uint64_t>(
                     static_cast<std::uint32_t>(dev::to_fixed(value))),
                 0);
        } else if (watch.last_value.has_value() &&
                   std::abs(value - *watch.last_value) >
                       watch.envelope.max_step) {
            emit(now, EventCategory::kPeripheral, EventSeverity::kAlert,
                 std::string(watch.sensor->name()),
                 "sensor value step implausible", 0, 0);
        }
        watch.last_value = value;
    }
}

sim::Cycle PeripheralMonitor::next_activity(sim::Cycle now) {
    if (!enabled()) return kIdleForever;
    sim::Cycle wake = kIdleForever;
    for (const auto& watch : sensors_) {
        if (watch.next_poll < wake) wake = watch.next_poll;
    }
    return wake > now ? wake : now;
}

}  // namespace cres::core
