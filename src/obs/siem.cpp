#include "obs/siem.h"

#include <utility>

#include "obs/json.h"
#include "obs/syslog.h"

namespace cres::obs {

namespace {

constexpr std::string_view kHeaderLine = "{\"format\":\"cres-siem-v1\"}";
constexpr std::string_view kChainDelim = ",\"chain\":\"";

[[nodiscard]] BytesView text_view(std::string_view s) noexcept {
    return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// RFC 5424 §6.3.3 SD-PARAM value escaping: `"`, `\` and `]`.
void sd_escape_into(std::string& out, std::string_view s) {
    for (const char c : s) {
        if (c == '"' || c == '\\' || c == ']') out += '\\';
        out += c;
    }
}

}  // namespace

std::string_view siem_kind_name(SiemKind kind) noexcept {
    switch (kind) {
        case SiemKind::kEvent: return "event";
        case SiemKind::kAlert: return "alert";
        case SiemKind::kState: return "state";
        case SiemKind::kIncidentOpen: return "incident-open";
        case SiemKind::kIncidentClose: return "incident-close";
        case SiemKind::kEvidenceHead: return "evidence-head";
        case SiemKind::kCampaign: return "campaign";
    }
    return "?";
}

std::string_view siem_kind_msgid(SiemKind kind) noexcept {
    switch (kind) {
        case SiemKind::kEvent: return "EVT";
        case SiemKind::kAlert: return "ALRT";
        case SiemKind::kState: return "STATE";
        case SiemKind::kIncidentOpen: return "INCOPEN";
        case SiemKind::kIncidentClose: return "INCCLOSE";
        case SiemKind::kEvidenceHead: return "EVHEAD";
        case SiemKind::kCampaign: return "CAMPAIGN";
    }
    return "?";
}

// --- SiemBuffer -----------------------------------------------------------

void SiemBuffer::bind_metrics(MetricsRegistry& registry) {
    m_dropped_ = &registry.counter("cres_siem_dropped_total");
    // Publish drops counted before binding exactly once (binding the
    // same registry again must not double-count).
    if (dropped_ > published_) {
        m_dropped_->inc(dropped_ - published_);
        published_ = dropped_;
    }
}

bool SiemBuffer::push(SiemEvent event) {
    if (events_.size() >= capacity_) {
        ++dropped_;
        if (m_dropped_ != nullptr) {
            m_dropped_->inc();
            ++published_;
        }
        return false;
    }
    events_.push_back(std::move(event));
    return true;
}

std::vector<SiemEvent> SiemBuffer::drain() {
    return std::exchange(events_, {});
}

// --- SiemStream -----------------------------------------------------------

SiemStream::SiemStream(BytesView key) : mac_(key) {
    jsonl_.append(kHeaderLine);
    jsonl_ += '\n';
}

std::string_view SiemStream::header() noexcept { return kHeaderLine; }

void SiemStream::append(std::uint32_t device_index, std::string_view device,
                        const SiemEvent& event) {
    // Body: the exact bytes the per-record digest covers. Field order
    // is part of the format — verifiers split on fixed delimiters.
    std::string body = "{\"seq\":";
    body += std::to_string(seq_);
    body += ",\"at\":";
    body += std::to_string(event.at);
    body += ",\"device\":";
    body += json_quote(device);
    body += ",\"index\":";
    body += std::to_string(device_index);
    body += ",\"kind\":\"";
    body += siem_kind_name(event.kind);
    body += "\",\"pri\":";
    body += std::to_string(rfc5424::pri(event.facility, event.severity));
    body += ",\"severity\":";
    body += std::to_string(event.severity);
    body += ",\"facility\":";
    body += std::to_string(event.facility);
    body += ",\"category\":";
    body += json_quote(event.category);
    body += ",\"source\":";
    body += json_quote(event.source);
    body += ",\"resource\":";
    body += json_quote(event.resource);
    body += ",\"detail\":";
    body += json_quote(event.detail);
    body += ",\"a\":";
    body += std::to_string(event.a);
    body += ",\"b\":";
    body += std::to_string(event.b);
    if (event.traced) {
        // Optional causal-trace object: absent on untraced records so
        // tracing-off streams are byte-identical to the v1 rendering.
        body += ",\"trace\":{\"origin\":";
        body += std::to_string(event.trace_origin);
        body += ",\"hop\":";
        body += std::to_string(event.trace_hop);
        body += ",\"span\":";
        body += std::to_string(event.trace_span);
        body += ",\"parent\":";
        body += std::to_string(event.trace_parent);
        body += '}';
    }
    body += '}';

    const crypto::Hash256 digest = crypto::sha256(text_view(body));
    head_ = mac_.tag_pair({head_.data(), head_.size()},
                          {digest.data(), digest.size()});
    ++seq_;

    body.pop_back();  // Re-open the object for the chain field.
    jsonl_ += body;
    jsonl_ += kChainDelim;
    jsonl_ += to_hex({head_.data(), head_.size()});
    jsonl_ += "\"}\n";

    // The operator rendering, from the same record. HEADER uses the
    // nil timestamp: wall clock does not exist in the simulation, so
    // the cycle stamp lives in the structured-data element instead.
    syslog_ += '<';
    syslog_ += std::to_string(rfc5424::pri(event.facility, event.severity));
    syslog_ += ">1 - ";
    syslog_.append(device.empty() ? "-" : device);
    syslog_ += ' ';
    syslog_.append(event.source.empty() ? "-" : event.source);
    syslog_ += " - ";
    syslog_ += siem_kind_msgid(event.kind);
    syslog_ += " [cres at=\"";
    syslog_ += std::to_string(event.at);
    syslog_ += "\" category=\"";
    sd_escape_into(syslog_, event.category);
    syslog_ += "\" resource=\"";
    sd_escape_into(syslog_, event.resource);
    syslog_ += "\" a=\"";
    syslog_ += std::to_string(event.a);
    syslog_ += "\" b=\"";
    syslog_ += std::to_string(event.b);
    syslog_ += "\"] ";
    syslog_ += event.detail;
    syslog_ += '\n';
}

void SiemStream::append_evidence_head(std::uint32_t device_index,
                                      std::string_view device,
                                      std::uint64_t at,
                                      std::uint64_t evidence_count,
                                      std::string_view head_hex) {
    SiemEvent anchor;
    anchor.at = at;
    anchor.kind = SiemKind::kEvidenceHead;
    anchor.severity = rfc5424::kInformational;
    anchor.facility = rfc5424::kFacAudit;
    anchor.category = "system";
    anchor.source = "ssm";
    anchor.resource = "evidence-chain";
    anchor.detail = std::string(head_hex);
    anchor.a = evidence_count;
    append(device_index, device, anchor);
}

std::string SiemStream::head_hex() const {
    return to_hex({head_.data(), head_.size()});
}

SiemVerifyResult SiemStream::verify(std::string_view jsonl, BytesView key) {
    SiemVerifyResult result;
    const crypto::HmacSha256 mac(key);
    crypto::Hash256 head{};  // Zero genesis, same as the stream.

    std::size_t line_no = 0;
    std::size_t pos = 0;
    bool saw_header = false;
    while (pos < jsonl.size()) {
        std::size_t end = jsonl.find('\n', pos);
        if (end == std::string_view::npos) end = jsonl.size();
        const std::string_view line = jsonl.substr(pos, end - pos);
        pos = end + 1;
        ++line_no;

        if (!saw_header) {
            if (line != kHeaderLine) {
                result.bad_line = line_no;
                result.reason = "missing cres-siem-v1 header";
                return result;
            }
            saw_header = true;
            continue;
        }
        if (line.empty()) {
            result.bad_line = line_no;
            result.reason = "empty record line";
            return result;
        }

        // Split off the chain field. Inside JSON string values every
        // `"` is escaped, so the delimiter cannot occur in data; rfind
        // keeps the split well-defined regardless.
        const std::size_t delim = line.rfind(kChainDelim);
        if (delim == std::string_view::npos) {
            result.bad_line = line_no;
            result.reason = "record has no chain field";
            return result;
        }
        const std::size_t hex_begin = delim + kChainDelim.size();
        // 64 hex chars + closing `"}`.
        if (line.size() != hex_begin + 66 ||
            line.substr(line.size() - 2) != "\"}") {
            result.bad_line = line_no;
            result.reason = "malformed chain field";
            return result;
        }
        const std::string_view chain_hex = line.substr(hex_begin, 64);

        std::string body(line.substr(0, delim));
        body += '}';
        const crypto::Hash256 digest = crypto::sha256(text_view(body));
        head = mac.tag_pair({head.data(), head.size()},
                            {digest.data(), digest.size()});
        if (to_hex({head.data(), head.size()}) != chain_hex) {
            result.bad_line = line_no;
            result.reason = "chain mismatch";
            return result;
        }
        ++result.records;
    }

    if (!saw_header) {
        result.bad_line = 0;
        result.reason = "empty stream";
        return result;
    }
    result.ok = true;
    return result;
}

}  // namespace cres::obs
