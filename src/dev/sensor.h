// Physical-world sensor (e.g. grid voltage, temperature, flow rate).
// Samples a host-provided signal function every `period` cycles into a
// fixed-point register. Spoofing attacks override the signal. Register
// map:
//   0x00 DATA    (R) latest sample, signed 16.16 fixed point
//   0x04 SAMPLES (R) sample count
//   0x08 PERIOD  (RW) sampling period in cycles
//
// The sensor is not ticked: it keeps the cycle of its next sample and
// takes every due sample, in cycle order, when it is read. A bus
// access, an event or a host call during cycle `c` sees the samples
// taken before `c`; a monitor polling during `c` passes `c + 1` to
// value_before() and also sees cycle `c`'s sample (docs/SCHEDULER.md,
// "Read phase").
#pragma once

#include <functional>

#include "dev/device.h"

namespace cres::dev {

/// Converts between double and the sensor's signed 16.16 fixed point.
std::int32_t to_fixed(double value) noexcept;
double from_fixed(std::int32_t raw) noexcept;

class Sensor : public Device {
public:
    /// `signal(cycle)` gives the physical truth at a cycle. `sim` is the
    /// clock the samples follow; the first one lands `period - 1` cycles
    /// after construction.
    Sensor(std::string name, const sim::Simulator& sim,
           std::function<double(sim::Cycle)> signal,
           std::uint32_t period = 100);

    static constexpr mem::Addr kRegData = 0x00;
    static constexpr mem::Addr kRegSamples = 0x04;
    static constexpr mem::Addr kRegPeriod = 0x08;

    /// Spoof hook: when set, readings come from the spoof function
    /// instead of the physical signal (models sensor-injection attacks).
    /// Samples before the current cycle keep the feed they were taken
    /// from.
    void set_spoof(std::function<double(sim::Cycle)> spoof) {
        catch_up(sim_.now());
        spoof_ = std::move(spoof);
    }
    void clear_spoof() {
        catch_up(sim_.now());
        spoof_ = nullptr;
    }
    [[nodiscard]] bool spoofed() const noexcept {
        return static_cast<bool>(spoof_);
    }

    /// Latest sample taken before the current cycle (host-side view).
    [[nodiscard]] double value() { return value_before(sim_.now()); }
    /// Latest sample taken at a cycle below `end`.
    [[nodiscard]] double value_before(sim::Cycle end) {
        catch_up(end);
        return from_fixed(data_);
    }
    /// The un-spoofed physical truth at a cycle.
    [[nodiscard]] double truth(sim::Cycle at) const { return signal_(at); }
    [[nodiscard]] std::uint32_t samples() {
        catch_up(sim_.now());
        return samples_;
    }

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    /// Takes every sample due at a cycle below `end`, in cycle order.
    void catch_up(sim::Cycle end);

    const sim::Simulator& sim_;
    std::function<double(sim::Cycle)> signal_;
    std::function<double(sim::Cycle)> spoof_;
    std::uint32_t period_;
    sim::Cycle next_sample_;
    std::int32_t data_ = 0;
    std::uint32_t samples_ = 0;
};

}  // namespace cres::dev
