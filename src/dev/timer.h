// Periodic timer. Register map:
//   0x00 COUNT    (R)  free-running counter (cycles while enabled)
//   0x04 COMPARE  (RW) match value
//   0x08 CTRL     (RW) bit0 enable, bit1 auto-reload (count := 0 on match)
//   0x0c MATCHES  (R)  number of matches so far
// Raises its IRQ on every match.
#pragma once

#include "dev/device.h"

namespace cres::dev {

class Timer : public Device, public sim::Tickable {
public:
    explicit Timer(std::string name) : Device(std::move(name)) {}

    static constexpr mem::Addr kRegCount = 0x00;
    static constexpr mem::Addr kRegCompare = 0x04;
    static constexpr mem::Addr kRegCtrl = 0x08;
    static constexpr mem::Addr kRegMatches = 0x0c;

    static constexpr std::uint32_t kCtrlEnable = 1u << 0;
    static constexpr std::uint32_t kCtrlAutoReload = 1u << 1;

    void tick(sim::Cycle now) override;

    /// Quiescence: a disabled timer never acts; an enabled one acts at
    /// its next COUNT == COMPARE match. Skipped ticks only advance
    /// COUNT, replayed in one addition.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override;
    void skip(sim::Cycle now, sim::Cycle cycles) override;

    /// Host-side configuration shortcut.
    void configure(std::uint32_t compare, bool auto_reload);

    [[nodiscard]] std::uint32_t matches() const noexcept { return matches_; }

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    std::uint32_t count_ = 0;
    std::uint32_t compare_ = 0;
    std::uint32_t ctrl_ = 0;
    std::uint32_t matches_ = 0;
};

}  // namespace cres::dev
