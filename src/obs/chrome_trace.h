// Chrome Trace Event Format builder. Renders spans, alerts, response
// actions and counter samples as the JSON object format that Perfetto
// and chrome://tracing open directly: one process track per device,
// one thread track per telemetry source, counter tracks for sampled
// values.
//
// Determinism contract: pids and tids are assigned in registration
// order and events are serialized in append order, so callers that
// feed the builder in a fixed order (the fleet iterates devices by
// index) produce byte-identical JSON at any worker_threads setting.
// Timestamps are simulated cycles rendered as microseconds (1 cycle =
// 1 us), so the Perfetto timeline reads directly in cycles.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cres::obs {

class ChromeTrace {
public:
    /// Get-or-create the process track for a device; emits the
    /// process_name metadata event on first registration. Pids are
    /// 1-based in registration order.
    std::uint32_t process(std::string_view name);

    /// Get-or-create a thread track under `pid`; emits thread_name
    /// metadata plus a sort-index pin on first registration. Tids are
    /// 1-based in per-process registration order.
    std::uint32_t thread(std::uint32_t pid, std::string_view name);

    /// Point event ("i", thread scope). `detail` becomes args.detail
    /// when non-empty.
    void instant(std::uint32_t pid, std::uint32_t tid, std::string_view name,
                 std::string_view category, std::uint64_t ts,
                 std::string_view detail = {});

    /// Duration event ("X") of `dur` cycles starting at `ts`.
    void complete(std::uint32_t pid, std::uint32_t tid, std::string_view name,
                  std::string_view category, std::uint64_t ts,
                  std::uint64_t dur, std::string_view detail = {});

    /// Counter sample ("C"): one series per `name` on the process track.
    void counter(std::uint32_t pid, std::string_view name, std::uint64_t ts,
                 std::uint64_t value);

    /// Flow-event pair: Perfetto draws an arrow from each flow_start
    /// ("s") to the flow_step ("t") carrying the same `id` — one arrow
    /// per cross-device frame when `id` is the frame's span id. Both
    /// ends must share `category` (Chrome matches flows on cat+id).
    void flow_start(std::uint32_t pid, std::uint32_t tid,
                    std::string_view name, std::string_view category,
                    std::uint64_t ts, std::uint64_t id);
    void flow_step(std::uint32_t pid, std::uint32_t tid,
                   std::string_view name, std::string_view category,
                   std::uint64_t ts, std::uint64_t id);

    /// The full artefact: {"displayTimeUnit": "ms", "traceEvents": [...]}.
    [[nodiscard]] std::string json() const;

private:
    void push(std::string event) { events_.push_back(std::move(event)); }

    std::vector<std::string> events_;  ///< Pre-rendered JSON objects.
    std::map<std::string, std::uint32_t, std::less<>> pids_;
    /// (pid, thread name) -> tid.
    std::map<std::pair<std::uint32_t, std::string>, std::uint32_t> tids_;
};

}  // namespace cres::obs
