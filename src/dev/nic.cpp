#include "dev/nic.h"

#include "util/error.h"

namespace cres::dev {

void Link::attach(Nic& a, Nic& b) {
    if (a_ != nullptr || b_ != nullptr) {
        throw NetError("Link::attach: already bound");
    }
    a_ = &a;
    b_ = &b;
    a.bind(*this);
    b.bind(*this);
}

void Link::transmit(const Nic& sender, const Bytes& frame) {
    if (a_ == nullptr || b_ == nullptr) {
        throw NetError("Link::transmit: unbound link");
    }
    const bool from_a = (&sender == a_);
    Bytes to_deliver = frame;
    if (tap_) {
        const auto tapped = tap_(frame, from_a);
        if (!tapped) {
            ++dropped_;
            return;
        }
        to_deliver = *tapped;
    }
    ++carried_;
    (from_a ? b_ : a_)->deliver(std::move(to_deliver));
}

void Link::inject(const Bytes& frame, bool to_a) {
    if (a_ == nullptr || b_ == nullptr) {
        throw NetError("Link::inject: unbound link");
    }
    ++carried_;
    (to_a ? a_ : b_)->deliver(frame);
}

void Nic::send_frame(const Bytes& frame) {
    if (link_ == nullptr) throw NetError("Nic::send_frame: no link");
    ++sent_;
    link_->transmit(*this, frame);
}

std::optional<Bytes> Nic::receive_frame() {
    if (rx_queue_.empty()) return std::nullopt;
    Bytes frame = std::move(rx_queue_.front());
    rx_queue_.erase(rx_queue_.begin());
    rx_offset_ = 0;
    return frame;
}

void Nic::deliver(Bytes frame) {
    ++received_;
    rx_queue_.push_back(std::move(frame));
    raise_irq();
}

mem::BusResponse Nic::read_reg(mem::Addr offset, std::uint32_t& out,
                               const mem::BusAttr& /*attr*/) {
    switch (offset) {
        case kRegRxByte:
            if (rx_queue_.empty() || rx_offset_ >= rx_queue_.front().size()) {
                out = 0;
            } else {
                out = rx_queue_.front()[rx_offset_++];
            }
            return mem::BusResponse::kOk;
        case kRegRxAvail:
            out = rx_queue_.empty()
                      ? 0
                      : static_cast<std::uint32_t>(rx_queue_.front().size() -
                                                   rx_offset_);
            return mem::BusResponse::kOk;
        case kRegRxPending:
            out = static_cast<std::uint32_t>(rx_queue_.size());
            return mem::BusResponse::kOk;
        default:
            return mem::BusResponse::kDeviceError;
    }
}

mem::BusResponse Nic::write_reg(mem::Addr offset, std::uint32_t value,
                                const mem::BusAttr& /*attr*/) {
    switch (offset) {
        case kRegTxByte:
            tx_buffer_.push_back(static_cast<std::uint8_t>(value & 0xff));
            return mem::BusResponse::kOk;
        case kRegTxSend: {
            if (link_ == nullptr) return mem::BusResponse::kDeviceError;
            Bytes frame = std::move(tx_buffer_);
            tx_buffer_.clear();
            ++sent_;
            link_->transmit(*this, frame);
            return mem::BusResponse::kOk;
        }
        case kRegRxNext:
            if (!rx_queue_.empty()) {
                rx_queue_.erase(rx_queue_.begin());
                rx_offset_ = 0;
            }
            return mem::BusResponse::kOk;
        default:
            return mem::BusResponse::kDeviceError;
    }
}

}  // namespace cres::dev
