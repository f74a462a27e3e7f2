#include "dev/power.h"

namespace cres::dev {

mem::BusResponse PowerSensor::read_reg(mem::Addr offset, std::uint32_t& out,
                                       const mem::BusAttr& /*attr*/) {
    switch (offset) {
        case kRegVoltage:
            out = static_cast<std::uint32_t>(to_fixed(voltage()));
            return mem::BusResponse::kOk;
        case kRegTemp:
            out = static_cast<std::uint32_t>(to_fixed(temp_));
            return mem::BusResponse::kOk;
        default:
            return mem::BusResponse::kDeviceError;
    }
}

mem::BusResponse PowerSensor::write_reg(mem::Addr /*offset*/,
                                        std::uint32_t /*value*/,
                                        const mem::BusAttr& /*attr*/) {
    return mem::BusResponse::kReadOnly;
}

}  // namespace cres::dev
