#include "net/channel.h"

#include "util/error.h"
#include "util/serial.h"

namespace cres::net {

SecureChannel::SecureChannel(dev::Nic& nic, Bytes key)
    : nic_(nic), key_(std::move(key)), mac_(key_) {
    if (key_.empty()) throw NetError("SecureChannel: empty key");
}

void SecureChannel::send(BytesView payload) {
    BinaryWriter w;
    w.u64(next_seq_);
    w.blob(payload);
    if (traced_) {
        TraceContext ctx;
        ctx.span_id = (std::uint64_t{self_} << 32) | ++span_counter_;
        if (parent_) {
            ctx.origin_device = parent_->origin_device;
            ctx.hop = parent_->hop + 1;
            ctx.parent_span_id = parent_->span_id;
        } else {
            ctx.origin_device = self_;
        }
        write_trace(w, ctx);
        last_sent_trace_ = ctx;
    }
    const crypto::Hash256 tag = mac_.tag(w.data());
    w.raw(tag);
    ++next_seq_;
    ++sent_;
    nic_.send_frame(w.data());
}

std::optional<Received> SecureChannel::poll() {
    const auto frame = nic_.receive_frame();
    if (!frame) return std::nullopt;
    return process(*frame);
}

Received SecureChannel::process(BytesView frame) {
    Received out;
    if (frame.size() < 8 + 4 + 32) {
        ++rejected_malformed_;
        out.status = RecvStatus::kMalformed;
        return out;
    }
    const std::size_t body_len = frame.size() - 32;
    const BytesView body(frame.data(), body_len);
    const BytesView tag(frame.data() + body_len, 32);

    try {
        BinaryReader r(body);
        out.sequence = r.u64();
        out.payload = r.blob();
        if (!r.done()) {
            // v2 trace extension: exactly one, magic-tagged, covered by
            // the MAC. Any other trailing bytes are malformed, as in v1.
            if (r.remaining() != kTraceWireSize || r.u32() != kTraceMagic) {
                ++rejected_malformed_;
                out.status = RecvStatus::kMalformed;
                return out;
            }
            TraceContext ctx;
            ctx.origin_device = r.u32();
            ctx.hop = r.u32();
            ctx.span_id = r.u64();
            ctx.parent_span_id = r.u64();
            out.trace = ctx;
        }
    } catch (const Error&) {
        ++rejected_malformed_;
        out.status = RecvStatus::kMalformed;
        return out;
    }

    if (!mac_.verify(body, tag)) {
        ++rejected_tag_;
        out.status = RecvStatus::kBadTag;
        out.payload.clear();
        return out;
    }
    if (out.sequence <= last_accepted_seq_) {
        ++rejected_replay_;
        out.status = RecvStatus::kReplay;
        out.payload.clear();
        return out;
    }

    last_accepted_seq_ = out.sequence;
    ++accepted_;
    out.status = RecvStatus::kOk;
    if (traced_) {
        // Only authenticated frames open a causal epoch; an untraced
        // authenticated frame closes the previous one.
        if (out.trace) {
            parent_ = *out.trace;
        } else {
            parent_.reset();
        }
    }
    return out;
}

}  // namespace cres::net
