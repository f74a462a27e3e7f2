// Voltage / temperature environment sensor — the substrate for the
// paper's "voltage, clock and temperature monitors" (Table I, recover
// row). Glitch attacks perturb the readings; the environment monitor
// flags excursions outside the provisioned envelope.
//   0x00 VOLTAGE (R) signed 16.16 fixed point, volts
//   0x04 TEMP    (R) signed 16.16 fixed point, degrees C
//
// The sensor is not ticked: a glitch is the cycle it ends, read
// against the clock. A bus access, an event or a host call during
// cycle `c` sees a glitch injected at `i` for `d` cycles while
// `c < i + d`; a monitor polling during `c` asks voltage_before(c + 1)
// (docs/SCHEDULER.md, "Read phase").
#pragma once

#include "dev/device.h"
#include "dev/sensor.h"  // fixed-point helpers

namespace cres::dev {

class PowerSensor : public Device {
public:
    PowerSensor(std::string name, const sim::Simulator& sim,
                double nominal_voltage, double nominal_temp)
        : Device(std::move(name)),
          sim_(sim),
          voltage_(nominal_voltage),
          temp_(nominal_temp) {}

    static constexpr mem::Addr kRegVoltage = 0x00;
    static constexpr mem::Addr kRegTemp = 0x04;

    /// Voltage at the start of the current cycle (host-side view).
    [[nodiscard]] double voltage() const noexcept {
        return voltage_before(sim_.now());
    }
    /// Voltage at the start of cycle `end`.
    [[nodiscard]] double voltage_before(sim::Cycle end) const noexcept {
        return end < glitch_end_ ? glitch_voltage_ : voltage_;
    }
    [[nodiscard]] double temperature() const noexcept { return temp_; }

    /// Injects a voltage glitch lasting `duration` cycles from now.
    void inject_glitch(double glitch_voltage, sim::Cycle duration) noexcept {
        glitch_voltage_ = glitch_voltage;
        glitch_end_ = sim_.now() + duration;
    }

    /// Slowly drifts the temperature (thermal attack / fault).
    void set_temperature(double celsius) noexcept { temp_ = celsius; }

    [[nodiscard]] bool glitch_active() const noexcept {
        return sim_.now() < glitch_end_;
    }

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    const sim::Simulator& sim_;
    double voltage_;
    double temp_;
    double glitch_voltage_ = 0.0;
    sim::Cycle glitch_end_ = 0;
};

}  // namespace cres::dev
