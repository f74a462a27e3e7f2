#include "sim/trace.h"

namespace cres::sim {

void TraceStream::emit(TraceRecord record) {
    records_.push_back(std::move(record));
    note_emit(records_.back());
}

void TraceStream::emit(Cycle at, std::string source, std::string kind,
                       std::string detail, std::uint64_t a, std::uint64_t b) {
    records_.push_back(TraceRecord{at, std::move(source), std::move(kind),
                                   std::move(detail), a, b});
    note_emit(records_.back());
}

void TraceStream::bind_metrics(obs::MetricsRegistry& registry) {
    m_records_ = &registry.gauge("cres_trace_records");
    m_bytes_ = &registry.gauge("cres_trace_bytes_approx");
    update_gauges();  // A stream bound late reports its backlog at once.
}

}  // namespace cres::sim
