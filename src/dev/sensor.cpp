#include "dev/sensor.h"

#include "util/error.h"

namespace cres::dev {

std::int32_t to_fixed(double value) noexcept {
    return static_cast<std::int32_t>(value * 65536.0);
}

double from_fixed(std::int32_t raw) noexcept {
    return static_cast<double>(raw) / 65536.0;
}

Sensor::Sensor(std::string name, const sim::Simulator& sim,
               std::function<double(sim::Cycle)> signal,
               std::uint32_t period)
    : Device(std::move(name)),
      sim_(sim),
      signal_(std::move(signal)),
      period_(period),
      next_sample_(sim.now() + period - 1) {
    if (!signal_) throw Error("Sensor: null signal function");
    if (period_ == 0) throw Error("Sensor: zero period");
}

void Sensor::catch_up(sim::Cycle end) {
    for (; next_sample_ < end; next_sample_ += period_) {
        const double value =
            spoof_ ? spoof_(next_sample_) : signal_(next_sample_);
        data_ = to_fixed(value);
        ++samples_;
    }
}

mem::BusResponse Sensor::read_reg(mem::Addr offset, std::uint32_t& out,
                                  const mem::BusAttr& /*attr*/) {
    catch_up(sim_.now());
    switch (offset) {
        case kRegData:
            out = static_cast<std::uint32_t>(data_);
            return mem::BusResponse::kOk;
        case kRegSamples: out = samples_; return mem::BusResponse::kOk;
        case kRegPeriod: out = period_; return mem::BusResponse::kOk;
        default: return mem::BusResponse::kDeviceError;
    }
}

mem::BusResponse Sensor::write_reg(mem::Addr offset, std::uint32_t value,
                                   const mem::BusAttr& /*attr*/) {
    if (offset == kRegPeriod && value > 0) {
        const sim::Cycle now = sim_.now();
        catch_up(now);
        period_ = value;
        // A shorter period pulls the pending sample in.
        if (next_sample_ > now + period_ - 1) next_sample_ = now + period_ - 1;
        return mem::BusResponse::kOk;
    }
    return mem::BusResponse::kDeviceError;
}

}  // namespace cres::dev
