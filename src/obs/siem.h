// Fleet-wide SIEM export stream (modelled on hash-chained audit logs
// with syslog/SIEM forwarding). Two pieces:
//
//  * SiemBuffer — a bounded per-device staging buffer the SSM pushes
//    severity-classified records into as they happen. Bounded means
//    backpressure is explicit: when the fleet drains too rarely the
//    oldest gap is visible as `cres_siem_dropped_total`, never as a
//    silent stall of the device hot path.
//
//  * SiemStream — the fleet-level export. Records are appended in
//    device-index order (deterministic at any worker count) and framed
//    twice from one source of truth: JSONL for machines and RFC 5424
//    syslog lines for operators. Every JSONL record carries a chain
//    field: head_n = HMAC(key, head_{n-1} || SHA256(body_n)) with a
//    zero genesis head, so a verifier holding the export key can check
//    the whole stream offline — like `cres-postmortem-v1`, the MAC
//    covers the exact rendered body bytes and any 1-byte flip fails.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "util/bytes.h"

namespace cres::obs {

/// Record classes carried by the stream. kEvent/kAlert split plain
/// monitor telemetry from records at syslog severity warning or worse;
/// the rest frame SSM lifecycle, per-device evidence anchors and
/// fleet-level campaign incidents.
enum class SiemKind : std::uint8_t {
    kEvent = 0,
    kAlert,
    kState,
    kIncidentOpen,
    kIncidentClose,
    kEvidenceHead,
    kCampaign,
};
constexpr std::size_t kSiemKindCount = 7;

/// Static-storage JSONL name ("event", "alert", ...).
[[nodiscard]] std::string_view siem_kind_name(SiemKind kind) noexcept;

/// Static-storage RFC 5424 MSGID ("EVT", "ALRT", ...).
[[nodiscard]] std::string_view siem_kind_msgid(SiemKind kind) noexcept;

/// One staged record. Severity/facility are RFC 5424 numeric codes,
/// already resolved by the producer (core::syslog_severity /
/// core::syslog_facility), so this layer never sees core enums.
struct SiemEvent {
    std::uint64_t at = 0;
    SiemKind kind = SiemKind::kEvent;
    std::uint8_t severity = 6;   ///< RFC 5424 severity code (0..7).
    std::uint8_t facility = 16;  ///< RFC 5424 facility code.
    std::string category;        ///< core event category name.
    std::string source;          ///< Emitting monitor / component.
    std::string resource;
    std::string detail;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    /// Causal-trace annotation (net::TraceContext propagated down from
    /// the monitor event). When `traced`, the JSONL record carries a
    /// `"trace"` object after `"b"`; untraced records render exactly as
    /// before, so tracing-off streams stay byte-identical.
    bool traced = false;
    std::uint32_t trace_origin = 0;
    std::uint32_t trace_hop = 0;
    std::uint64_t trace_span = 0;
    std::uint64_t trace_parent = 0;
};

/// Bounded per-device staging buffer (see file comment). capacity 0
/// disables the buffer entirely: push() is a counted no-op.
class SiemBuffer {
public:
    explicit SiemBuffer(std::size_t capacity) : capacity_(capacity) {}

    /// Registers `cres_siem_dropped_total` (and re-publishes any drops
    /// counted before binding, so early drops are never lost).
    void bind_metrics(MetricsRegistry& registry);

    /// Stages one record; false (and the drop counter) when full.
    bool push(SiemEvent event);

    /// Removes and returns everything staged, oldest first.
    [[nodiscard]] std::vector<SiemEvent> drain();

    [[nodiscard]] bool enabled() const noexcept { return capacity_ != 0; }
    [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

private:
    std::size_t capacity_;
    std::vector<SiemEvent> events_;
    Counter* m_dropped_ = nullptr;
    std::uint64_t dropped_ = 0;
    std::uint64_t published_ = 0;  ///< Drops already in the counter.
};

/// Offline verification outcome. `bad_line` is the 1-based line number
/// of the first failing line (0 when ok).
struct SiemVerifyResult {
    bool ok = false;
    std::size_t records = 0;
    std::size_t bad_line = 0;
    std::string reason;
};

class SiemStream {
public:
    /// Device index stamped on fleet-level (non-device) records.
    static constexpr std::uint32_t kFleetIndex = 0xffffffffu;

    /// `key` is the fleet export key (HKDF-derived in the platform).
    explicit SiemStream(BytesView key);

    /// Appends one record for `device` (index-ordered by the caller)
    /// and advances the hash chain.
    void append(std::uint32_t device_index, std::string_view device,
                const SiemEvent& event);

    /// Convenience: frames a per-device evidence-chain anchor
    /// (kEvidenceHead, a = record count, detail = chain head hex).
    void append_evidence_head(std::uint32_t device_index,
                              std::string_view device, std::uint64_t at,
                              std::uint64_t evidence_count,
                              std::string_view head_hex);

    [[nodiscard]] std::uint64_t records() const noexcept { return seq_; }
    [[nodiscard]] const crypto::Hash256& head() const noexcept {
        return head_;
    }
    [[nodiscard]] std::string head_hex() const;

    /// The machine stream: one header line, then one chained JSON
    /// object per record.
    [[nodiscard]] const std::string& jsonl() const noexcept {
        return jsonl_;
    }

    /// The operator stream: RFC 5424 lines rendered from the same
    /// records (nil timestamp — simulated cycles live in the SD-E).
    [[nodiscard]] const std::string& syslog() const noexcept {
        return syslog_;
    }

    /// Offline chain verification of an exported JSONL stream.
    [[nodiscard]] static SiemVerifyResult verify(std::string_view jsonl,
                                                 BytesView key);

    /// The fixed first line of every export.
    [[nodiscard]] static std::string_view header() noexcept;

private:
    crypto::HmacSha256 mac_;
    crypto::Hash256 head_{};  ///< Zero genesis.
    std::uint64_t seq_ = 0;
    std::string jsonl_;
    std::string syslog_;
};

}  // namespace cres::obs
