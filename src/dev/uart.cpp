#include "dev/uart.h"

namespace cres::dev {

void Uart::inject_input(std::string_view text) {
    for (char c : text) rx_.push_back(static_cast<std::uint8_t>(c));
    if (!rx_.empty()) raise_irq();
}

mem::BusResponse Uart::read_reg(mem::Addr offset, std::uint32_t& out,
                                const mem::BusAttr& /*attr*/) {
    switch (offset) {
        case kRegStatus:
            out = 1u | (rx_.empty() ? 0u : 2u);
            return mem::BusResponse::kOk;
        case kRegRxData:
            if (rx_.empty()) {
                out = 0;
            } else {
                out = rx_.front();
                rx_.erase(rx_.begin());
            }
            return mem::BusResponse::kOk;
        case kRegTxData:
            out = 0;
            return mem::BusResponse::kOk;
        default:
            return mem::BusResponse::kDeviceError;
    }
}

mem::BusResponse Uart::write_reg(mem::Addr offset, std::uint32_t value,
                                 const mem::BusAttr& /*attr*/) {
    if (offset == kRegTxData) {
        tx_.push_back(static_cast<char>(value & 0xff));
        return mem::BusResponse::kOk;
    }
    return mem::BusResponse::kDeviceError;
}

}  // namespace cres::dev
