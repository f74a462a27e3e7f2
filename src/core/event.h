// Security-event vocabulary shared by the Active Runtime Resource
// Monitors (producers) and the System Security Manager (consumer).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/trace.h"
#include "sim/simulator.h"

namespace cres::core {

enum class EventSeverity : std::uint8_t {
    kInfo = 0,      ///< Telemetry, no action implied.
    kAdvisory = 1,  ///< Unusual but possibly benign.
    kAlert = 2,     ///< Malicious activity suspected.
    kCritical = 3,  ///< Confirmed compromise / safety impact.
};

/// Static-storage name for a severity; no per-call allocation.
std::string_view severity_name(EventSeverity severity) noexcept;

enum class EventCategory : std::uint8_t {
    kBusViolation,  ///< Illegal/secure-violating interconnect traffic.
    kControlFlow,   ///< CFI break: bad return or call target.
    kMemory,        ///< W^X, canary, MPU faults, code tampering.
    kDataFlow,      ///< Tainted data reaching a public sink (DIFT).
    kPeripheral,    ///< Actuator/sensor behaviour out of envelope.
    kTiming,        ///< Missed heartbeats/deadlines, starvation.
    kNetwork,       ///< Authentication failures, replay, floods.
    kEnvironment,   ///< Voltage/temperature excursions (glitching).
    kBoot,          ///< Boot/update anomalies (rollback attempts...).
    kSystem,        ///< SSM-internal findings (correlation results).
};
constexpr std::size_t kEventCategoryCount = 10;

/// Static-storage name for a category; no per-call allocation.
std::string_view category_name(EventCategory category) noexcept;

// --- RFC 5424 mapping table used by the SIEM export stream (the
// --- numeric vocabulary itself lives in obs/syslog.h).

/// Syslog severity code for an event severity: kInfo -> informational
/// (6), kAdvisory -> notice (5), kAlert -> warning (4), kCritical ->
/// critical (2).
[[nodiscard]] std::uint8_t syslog_severity(EventSeverity severity) noexcept;

/// Syslog facility code for an event category: monitor categories map
/// onto local0..7 (16..23), kBoot onto kern (0), kSystem onto the
/// audit facility (13).
[[nodiscard]] std::uint8_t syslog_facility(EventCategory category) noexcept;

/// PRI = facility * 8 + severity (RFC 5424 §6.2.1).
[[nodiscard]] std::uint8_t syslog_pri(EventCategory category,
                                      EventSeverity severity) noexcept;

/// One observation from a resource monitor.
struct MonitorEvent {
    sim::Cycle at = 0;
    std::string monitor;    ///< Emitting monitor name.
    EventCategory category = EventCategory::kSystem;
    EventSeverity severity = EventSeverity::kInfo;
    std::string resource;   ///< Affected resource (region/device/task).
    std::string detail;     ///< Human-readable context.
    std::uint64_t a = 0;    ///< Category-specific scalar (e.g. address).
    std::uint64_t b = 0;    ///< Category-specific scalar (e.g. value).
    /// Causal trace context the triggering frame carried, when the
    /// observation is frame-borne and the estate traces (net/trace.h).
    /// For rejected frames this is claimed, unauthenticated metadata.
    std::optional<net::TraceContext> trace;
};

/// Where monitors deliver events (implemented by the SSM).
class EventSink {
public:
    virtual ~EventSink() = default;
    virtual void submit(const MonitorEvent& event) = 0;
};

}  // namespace cres::core
