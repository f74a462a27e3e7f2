#include "dev/actuator.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace cres::dev {

Actuator::Actuator(std::string name, double min_value, double max_value)
    : Device(std::move(name)), min_(min_value), max_(max_value) {
    if (min_ > max_) throw Error("Actuator: min > max");
}

mem::BusResponse Actuator::read_reg(mem::Addr offset, std::uint32_t& out,
                                    const mem::BusAttr& /*attr*/) {
    switch (offset) {
        case kRegCurrent:
            out = static_cast<std::uint32_t>(to_fixed(current_));
            return mem::BusResponse::kOk;
        case kRegCount:
            out = static_cast<std::uint32_t>(commands_);
            return mem::BusResponse::kOk;
        default:
            return mem::BusResponse::kDeviceError;
    }
}

mem::BusResponse Actuator::write_reg(mem::Addr offset, std::uint32_t value,
                                     const mem::BusAttr& /*attr*/) {
    if (offset != kRegCommand) return mem::BusResponse::kDeviceError;
    const double requested = from_fixed(static_cast<std::int32_t>(value));
    const double applied = std::clamp(requested, min_, max_);
    ++commands_;
    if (requested != applied || applied > kRatedLimit ||
        applied < -kRatedLimit) {
        ++unsafe_;
    }
    travel_ += std::abs(applied - current_);
    current_ = applied;
    return mem::BusResponse::kOk;
}

}  // namespace cres::dev
