// Network interface + point-to-point link for M2M communication.
//
// The Link is the physical medium: it connects exactly two NICs and
// supports an attacker tap (man-in-the-middle hook) that can observe,
// modify, drop or forge frames — the M2M threat the paper highlights.
//
// NIC register map:
//   0x00 TX_BYTE   (W) append byte to the outgoing frame
//   0x04 TX_SEND   (W) transmit the assembled frame
//   0x08 RX_BYTE   (R) pop next byte of the current inbound frame
//   0x0c RX_AVAIL  (R) bytes left in the current inbound frame
//   0x10 RX_NEXT   (W) advance to the next queued frame
//   0x14 RX_PENDING(R) queued frame count (including current)
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "dev/device.h"
#include "util/bytes.h"

namespace cres::dev {

class Nic;

/// Point-to-point medium with an optional man-in-the-middle tap.
class Link {
public:
    /// The tap sees every frame: return the (possibly modified) frame
    /// to deliver, or nullopt to drop it. `from_a` tells direction.
    using Tap = std::function<std::optional<Bytes>(const Bytes& frame,
                                                   bool from_a)>;

    /// Connects the two endpoints. Throws NetError when already bound.
    void attach(Nic& a, Nic& b);

    /// Transmits from one endpoint to the other (called by the NIC).
    void transmit(const Nic& sender, const Bytes& frame);

    /// Attacker injection: deliver a forged frame to one endpoint
    /// (`to_a` selects the victim).
    void inject(const Bytes& frame, bool to_a);

    void set_tap(Tap tap) { tap_ = std::move(tap); }
    void clear_tap() noexcept { tap_ = nullptr; }

    [[nodiscard]] std::uint64_t frames_carried() const noexcept {
        return carried_;
    }
    [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
        return dropped_;
    }

private:
    Nic* a_ = nullptr;
    Nic* b_ = nullptr;
    Tap tap_;
    std::uint64_t carried_ = 0;
    std::uint64_t dropped_ = 0;
};

class Nic : public Device {
public:
    explicit Nic(std::string name) : Device(std::move(name)) {}

    static constexpr mem::Addr kRegTxByte = 0x00;
    static constexpr mem::Addr kRegTxSend = 0x04;
    static constexpr mem::Addr kRegRxByte = 0x08;
    static constexpr mem::Addr kRegRxAvail = 0x0c;
    static constexpr mem::Addr kRegRxNext = 0x10;
    static constexpr mem::Addr kRegRxPending = 0x14;

    /// Host-side frame API (used by C++-modelled protocol stacks).
    void send_frame(const Bytes& frame);
    [[nodiscard]] std::optional<Bytes> receive_frame();
    [[nodiscard]] std::size_t pending_frames() const noexcept {
        return rx_queue_.size();
    }

    /// Called by the Link on delivery.
    void deliver(Bytes frame);

    void bind(Link& link) { link_ = &link; }
    [[nodiscard]] bool linked() const noexcept { return link_ != nullptr; }

    [[nodiscard]] std::uint64_t frames_sent() const noexcept { return sent_; }
    [[nodiscard]] std::uint64_t frames_received() const noexcept {
        return received_;
    }

protected:
    mem::BusResponse read_reg(mem::Addr offset, std::uint32_t& out,
                              const mem::BusAttr& attr) override;
    mem::BusResponse write_reg(mem::Addr offset, std::uint32_t value,
                               const mem::BusAttr& attr) override;

private:
    Link* link_ = nullptr;
    Bytes tx_buffer_;
    std::vector<Bytes> rx_queue_;  ///< FIFO: frames leave from the front.
    std::size_t rx_offset_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
};

}  // namespace cres::dev
