// Authenticated M2M messaging channel over a NIC link.
//
// Wire format per frame (v1):
//   u64 sequence | u32 payload length | payload | 32-byte HMAC-SHA256
// Traced frames (v2) insert an optional causal-trace extension between
// the payload and the tag:
//   ... payload | u32 "CTX1" | u32 origin | u32 hop | u64 span
//               | u64 parent-span | 32-byte HMAC-SHA256
// The tag covers everything before it, trace included; v1 frames still
// parse, and any trailing bytes that are not a well-formed extension
// are rejected as malformed exactly as under v1. Strictly-increasing
// sequence numbers give replay protection. This is the "secure, verify
// and avoid man-in-middle attacks" requirement of the paper's Respond
// section.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "crypto/hmac.h"
#include "dev/nic.h"
#include "net/trace.h"
#include "util/bytes.h"

namespace cres::net {

enum class RecvStatus : std::uint8_t {
    kOk,
    kMalformed,
    kBadTag,
    kReplay,
};

struct Received {
    RecvStatus status = RecvStatus::kOk;
    std::uint64_t sequence = 0;
    Bytes payload;
    /// Trace extension, when the frame carried one. Like `sequence`,
    /// it is populated even for kBadTag/kReplay frames: *claimed*
    /// metadata that monitors may surface but must never trust.
    std::optional<TraceContext> trace;
};

class SecureChannel {
public:
    /// Both ends must share `key` (provisioned out of band).
    SecureChannel(dev::Nic& nic, Bytes key);

    /// Sends an authenticated frame.
    void send(BytesView payload);

    /// Processes the next received frame, if any. Authentication
    /// failures are *returned* (so monitors can count them), never
    /// silently dropped.
    [[nodiscard]] std::optional<Received> poll();

    /// Verifies one externally-supplied frame (for callers that demux
    /// the NIC themselves, e.g. to route attestation traffic).
    [[nodiscard]] Received process(BytesView frame);

    /// Enables causal tracing: outbound frames carry a TraceContext
    /// whose span id is `(self << 32) | counter`. The context of each
    /// *authenticated* inbound traced frame becomes the parent of the
    /// frames sent while handling it (until the next authenticated
    /// frame opens a new causal epoch). Claimed contexts on rejected
    /// frames are surfaced in Received but never adopted.
    void enable_tracing(std::uint32_t self) noexcept {
        traced_ = true;
        self_ = self;
    }
    [[nodiscard]] bool tracing() const noexcept { return traced_; }

    /// Context stamped on the most recent traced send. `span_id == 0`
    /// means no traced frame has been sent yet.
    [[nodiscard]] const TraceContext& last_sent_trace() const noexcept {
        return last_sent_trace_;
    }

    /// Current inbound parent context, if any.
    [[nodiscard]] const std::optional<TraceContext>& parent() const noexcept {
        return parent_;
    }

    // Telemetry.
    [[nodiscard]] std::uint64_t sent() const noexcept { return sent_; }
    [[nodiscard]] std::uint64_t accepted() const noexcept { return accepted_; }
    [[nodiscard]] std::uint64_t rejected_tag() const noexcept {
        return rejected_tag_;
    }
    [[nodiscard]] std::uint64_t rejected_replay() const noexcept {
        return rejected_replay_;
    }
    [[nodiscard]] std::uint64_t rejected_malformed() const noexcept {
        return rejected_malformed_;
    }

private:
    dev::Nic& nic_;
    Bytes key_;
    /// Keyed once per channel: frame MACs reuse the cached ipad/opad
    /// midstates on both the send and verify paths.
    crypto::HmacSha256 mac_;
    std::uint64_t next_seq_ = 1;
    std::uint64_t last_accepted_seq_ = 0;
    bool traced_ = false;
    std::uint32_t self_ = 0;
    std::uint64_t span_counter_ = 0;
    TraceContext last_sent_trace_;
    std::optional<TraceContext> parent_;
    std::uint64_t sent_ = 0;
    std::uint64_t accepted_ = 0;
    std::uint64_t rejected_tag_ = 0;
    std::uint64_t rejected_replay_ = 0;
    std::uint64_t rejected_malformed_ = 0;
};

}  // namespace cres::net
