// Watchdog timer — the classic passive countermeasure the paper cites.
// Register map:
//   0x00 KICK     (W)  any write restarts the countdown
//   0x04 TIMEOUT  (RW) cycles until expiry
//   0x08 CTRL     (RW) bit0 enable
//   0x0c EXPIRIES (R)  expiry count
// On expiry the watchdog raises its IRQ and invokes the expiry callback
// (the platform typically wires this to a system reset).
#pragma once

#include "dev/device.h"

namespace cres::dev {

class Watchdog : public Device, public sim::Tickable {
public:
    explicit Watchdog(std::string name) : Device(std::move(name)) {}

    static constexpr mem::Addr kRegKick = 0x00;
    static constexpr mem::Addr kRegTimeout = 0x04;
    static constexpr mem::Addr kRegCtrl = 0x08;
    static constexpr mem::Addr kRegExpiries = 0x0c;

    void tick(sim::Cycle now) override;

    /// Quiescence: disabled or drained (remaining == 0) watchdogs never
    /// act; an armed one expires when the countdown hits zero. Skipped
    /// ticks only drain the countdown, replayed in one subtraction.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override;
    void skip(sim::Cycle now, sim::Cycle cycles) override;

    /// Host-side arm.
    void arm(std::uint32_t timeout_cycles);
    void kick() noexcept { remaining_ = timeout_; }

    /// Invoked (once per expiry) in addition to the IRQ.
    void set_expiry_callback(std::function<void()> callback) {
        on_expiry_ = std::move(callback);
    }

    [[nodiscard]] std::uint32_t expiries() const noexcept { return expiries_; }
    [[nodiscard]] bool enabled() const noexcept { return (ctrl_ & 1u) != 0; }

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    std::uint32_t timeout_ = 0;
    std::uint32_t remaining_ = 0;
    std::uint32_t ctrl_ = 0;
    std::uint32_t expiries_ = 0;
    std::function<void()> on_expiry_;
};

}  // namespace cres::dev
