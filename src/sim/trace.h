// Structured telemetry stream. Every architectural component (CPU, bus,
// peripherals, monitors) can emit records; the System Security Manager
// consumes them to build the evidence log — the paper's "continuity of
// data stream" is measured over these records.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"

namespace cres::sim {

/// One telemetry record. `a` and `b` carry kind-specific scalars
/// (e.g. address and value for a bus write).
struct TraceRecord {
    Cycle at = 0;
    std::string source;  ///< Component name, e.g. "bus0", "cpu".
    std::string kind;    ///< Record type, e.g. "write", "trap", "alert".
    std::string detail;  ///< Free-form human-readable context.
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/// Append-only record stream.
class TraceStream {
public:
    void emit(TraceRecord record);
    void emit(Cycle at, std::string source, std::string kind,
              std::string detail = {}, std::uint64_t a = 0,
              std::uint64_t b = 0);

    [[nodiscard]] const std::vector<TraceRecord>& records() const noexcept {
        return records_;
    }
    [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
    [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

    /// Approximate heap footprint of the stream (record structs plus
    /// string payload lengths) — the observable cost of the stream
    /// being unbounded. Maintained on emit, reset by clear().
    [[nodiscard]] std::uint64_t bytes_approx() const noexcept {
        return bytes_approx_;
    }

    /// Registers the `cres_trace_records` / `cres_trace_bytes_approx`
    /// gauges so the stream's unbounded growth is visible on long runs.
    /// Unbound streams (the default) pay one null check per emit.
    void bind_metrics(obs::MetricsRegistry& registry);

    /// Drops all records (models a reboot wiping volatile telemetry —
    /// the failure mode the paper attributes to passive architectures).
    void clear() noexcept {
        records_.clear();
        bytes_approx_ = 0;
        update_gauges();
    }

private:
    void note_emit(const TraceRecord& record) noexcept {
        bytes_approx_ += sizeof(TraceRecord) + record.source.size() +
                         record.kind.size() + record.detail.size();
        update_gauges();
    }
    void update_gauges() noexcept {
        if (m_records_ == nullptr) return;
        m_records_->set(static_cast<std::int64_t>(records_.size()));
        m_bytes_->set(static_cast<std::int64_t>(bytes_approx_));
    }

    std::vector<TraceRecord> records_;
    std::uint64_t bytes_approx_ = 0;
    obs::Gauge* m_records_ = nullptr;  ///< Null until bind_metrics.
    obs::Gauge* m_bytes_ = nullptr;
};

}  // namespace cres::sim
