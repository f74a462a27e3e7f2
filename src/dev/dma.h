// DMA engine — a second bus master, and therefore a classic attack
// surface: a compromised driver can program it to copy secrets out of
// memory the CPU's MPU would never let the task touch. Register map:
//   0x00 SRC    (RW)
//   0x04 DST    (RW)
//   0x08 LEN    (RW) bytes
//   0x0c CTRL   (W)  bit0 start, bit1 claim-secure (honoured only for
//                    privileged writes — the [34]-style escalation knob)
//   0x10 STATUS (R)  bit0 busy, bit1 done, bit2 error
// Copies kBytesPerCycle per cycle; raises IRQ on completion.
#pragma once

#include "dev/device.h"

namespace cres::dev {

class DmaEngine : public Device, public sim::Tickable {
public:
    DmaEngine(std::string name, mem::Bus& bus)
        : Device(std::move(name)), bus_(bus) {}

    static constexpr mem::Addr kRegSrc = 0x00;
    static constexpr mem::Addr kRegDst = 0x04;
    static constexpr mem::Addr kRegLen = 0x08;
    static constexpr mem::Addr kRegCtrl = 0x0c;
    static constexpr mem::Addr kRegStatus = 0x10;

    static constexpr std::uint32_t kCtrlStart = 1u << 0;
    static constexpr std::uint32_t kCtrlClaimSecure = 1u << 1;

    static constexpr std::uint32_t kStatusBusy = 1u << 0;
    static constexpr std::uint32_t kStatusDone = 1u << 1;
    static constexpr std::uint32_t kStatusError = 1u << 2;

    static constexpr std::uint32_t kBytesPerCycle = 4;

    void tick(sim::Cycle now) override;

    /// Quiescence: an idle engine does nothing until a transfer is
    /// programmed — a bus write, which only lands on a stepped cycle.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override {
        return busy_ ? now : kIdleForever;
    }

    /// Host-side transfer kick-off (models a driver call). With
    /// `dst_fixed` every byte goes to the same destination address
    /// (FIFO-register targets such as a NIC TX port).
    void start_transfer(mem::Addr src, mem::Addr dst, std::uint32_t len,
                        bool secure = false, bool dst_fixed = false);

    [[nodiscard]] bool busy() const noexcept { return busy_; }
    [[nodiscard]] std::uint32_t status() const noexcept;
    [[nodiscard]] std::uint64_t bytes_transferred() const noexcept {
        return bytes_transferred_;
    }
    [[nodiscard]] std::uint32_t transfers_completed() const noexcept {
        return completed_;
    }

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    mem::Bus& bus_;
    std::uint32_t src_ = 0;
    std::uint32_t dst_ = 0;
    std::uint32_t len_ = 0;
    std::uint32_t progress_ = 0;
    bool busy_ = false;
    bool done_ = false;
    bool error_ = false;
    bool secure_ = false;
    bool dst_fixed_ = false;
    std::uint64_t bytes_transferred_ = 0;
    std::uint32_t completed_ = 0;
};

}  // namespace cres::dev
