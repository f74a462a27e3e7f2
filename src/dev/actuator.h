// Physical actuator (e.g. breaker, valve, motor drive). Records every
// command so experiments can quantify physical impact ("damage") of an
// attack and monitors can check plausibility (range and slew-rate
// limits). Register map:
//   0x00 COMMAND (W) signed 16.16 fixed-point setpoint
//   0x04 CURRENT (R) last accepted setpoint
//   0x08 COUNT   (R) number of commands
#pragma once

#include <vector>

#include "dev/device.h"
#include "dev/sensor.h"  // to_fixed/from_fixed

namespace cres::dev {

class Actuator : public Device {
public:
    /// Commands outside [min_value, max_value] are *physically* clamped
    /// but still recorded (the plant protects itself; the monitor's job
    /// is to notice the attempt).
    Actuator(std::string name, double min_value, double max_value);

    static constexpr mem::Addr kRegCommand = 0x00;
    static constexpr mem::Addr kRegCurrent = 0x04;
    static constexpr mem::Addr kRegCount = 0x08;

    struct Command {
        double requested = 0.0;
        double applied = 0.0;
        bool clamped = false;
    };

    [[nodiscard]] double current() const noexcept { return current_; }
    [[nodiscard]] const std::vector<Command>& history() const noexcept {
        return history_;
    }
    [[nodiscard]] std::size_t command_count() const noexcept {
        return history_.size();
    }
    [[nodiscard]] std::size_t clamped_count() const noexcept;

    /// Total |applied| movement — a crude physical-wear/damage metric.
    [[nodiscard]] double total_travel() const noexcept;

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    double min_;
    double max_;
    double current_ = 0.0;
    std::vector<Command> history_;
};

}  // namespace cres::dev
