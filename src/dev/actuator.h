// Physical actuator (e.g. breaker, valve, motor drive). Keeps running
// totals of its commands (count, travel, commands outside the rated
// band) so experiments can quantify the physical impact ("damage") of
// an attack; monitors check plausibility (range and slew-rate limits)
// on the bus writes themselves. Register map:
//   0x00 COMMAND (W) signed 16.16 fixed-point setpoint
//   0x04 CURRENT (R) last accepted setpoint
//   0x08 COUNT   (R) number of commands
#pragma once

#include "dev/device.h"
#include "dev/sensor.h"  // to_fixed/from_fixed

namespace cres::dev {

class Actuator : public Device {
public:
    /// Commands outside [min_value, max_value] are *physically* clamped
    /// but still counted (the plant protects itself; the monitor's job
    /// is to notice the attempt).
    Actuator(std::string name, double min_value, double max_value);

    static constexpr mem::Addr kRegCommand = 0x00;
    static constexpr mem::Addr kRegCurrent = 0x04;
    static constexpr mem::Addr kRegCount = 0x08;

    /// The plant's rated envelope, ±kRatedLimit: setpoints beyond it
    /// are unsafe even where the physical range still accepts them.
    static constexpr double kRatedLimit = 50.0;

    [[nodiscard]] double current() const noexcept { return current_; }
    [[nodiscard]] std::size_t command_count() const noexcept {
        return commands_;
    }
    /// Commands that were clamped or applied beyond ±kRatedLimit.
    [[nodiscard]] std::size_t unsafe_commands() const noexcept {
        return unsafe_;
    }

    /// Total |applied| movement — a crude physical-wear/damage metric.
    [[nodiscard]] double total_travel() const noexcept { return travel_; }

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    double min_;
    double max_;
    double current_ = 0.0;
    std::size_t commands_ = 0;
    std::size_t unsafe_ = 0;
    double travel_ = 0.0;
};

}  // namespace cres::dev
