// UART console. Register map (word offsets):
//   0x00 TX_DATA  (W)  transmit one byte
//   0x04 STATUS   (R)  bit0 tx_ready (always 1), bit1 rx_avail
//   0x08 RX_DATA  (R)  pop one received byte (0 when empty)
#pragma once

#include <string>
#include <vector>

#include "dev/device.h"

namespace cres::dev {

class Uart : public Device {
public:
    explicit Uart(std::string name) : Device(std::move(name)) {}

    static constexpr mem::Addr kRegTxData = 0x00;
    static constexpr mem::Addr kRegStatus = 0x04;
    static constexpr mem::Addr kRegRxData = 0x08;

    /// Everything the guest transmitted so far.
    [[nodiscard]] const std::string& output() const noexcept { return tx_; }
    void clear_output() noexcept { tx_.clear(); }

    /// Host-side input injection (appears on RX_DATA).
    void inject_input(std::string_view text);

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    std::string tx_;
    std::vector<std::uint8_t> rx_;  ///< FIFO: bytes leave from the front.
};

}  // namespace cres::dev
