// Common peripheral plumbing: IRQ wiring and a base class for
// memory-mapped devices. Devices with per-cycle behaviour (timer,
// watchdog, DMA engine) are also sim::Tickables.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "mem/bus.h"
#include "sim/simulator.h"

namespace cres::dev {

/// Callback a device uses to assert an interrupt line.
using IrqRaiser = std::function<void(unsigned line)>;

/// Base for memory-mapped peripherals. Subclasses implement the
/// register file via read_reg/write_reg on word-aligned offsets.
class Device : public mem::BusTarget {
public:
    explicit Device(std::string name) : name_(std::move(name)) {}

    std::string_view name() const override { return name_; }

    /// Connects the interrupt output. `line` is the CPU IRQ number.
    void connect_irq(IrqRaiser raiser, unsigned line) {
        irq_ = std::move(raiser);
        irq_line_ = line;
    }

    // Registers are word-granular; sub-word accesses are accepted when
    // they target the register's base (DMA engines stream bytes) and
    // carry the value in the low bits.
    mem::BusResponse read(mem::Addr offset, std::uint32_t size,
                          std::uint32_t& out, const mem::BusAttr& attr) final {
        if (offset % 4 != 0) return mem::BusResponse::kDeviceError;
        std::uint32_t value = 0;
        const mem::BusResponse response = read_reg(offset, value, attr);
        if (response == mem::BusResponse::kOk) {
            out = size >= 4 ? value
                            : value & ((1u << (8 * size)) - 1u);
        }
        return response;
    }

    mem::BusResponse write(mem::Addr offset, std::uint32_t size,
                           std::uint32_t value,
                           const mem::BusAttr& attr) final {
        if (offset % 4 != 0) return mem::BusResponse::kDeviceError;
        (void)size;
        return write_reg(offset, value, attr);
    }

protected:
    virtual mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                                      const mem::BusAttr& attr) = 0;
    virtual mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                                       const mem::BusAttr& attr) = 0;

    /// Raises the connected IRQ (no-op when unconnected).
    void raise_irq() {
        if (irq_) irq_(irq_line_);
    }

private:
    std::string name_;
    IrqRaiser irq_;
    unsigned irq_line_ = 0;
};

}  // namespace cres::dev
