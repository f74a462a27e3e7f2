// Graceful-degradation manager (paper §V-3): when a resource is
// isolated or a task killed, shed non-critical services so the
// critical function keeps running — "maintain critical services in
// next-generation critical infrastructure".
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace cres::core {

class DegradationManager {
public:
    /// `set_enabled(bool)` turns the service on/off (e.g. gates its
    /// task scheduling or fences its peripheral).
    void register_service(const std::string& name, bool critical,
                          std::function<void(bool)> set_enabled);

    /// Sheds all non-critical services; returns how many were shed.
    std::size_t degrade();

    /// Registers the shed counter and the degraded-state gauge.
    void bind_metrics(obs::MetricsRegistry& registry);

    /// Restores every service.
    void restore();

    [[nodiscard]] bool degraded() const noexcept { return degraded_; }

private:
    struct Service {
        std::string name;
        bool critical = false;
        bool enabled = true;
        std::function<void(bool)> set_enabled;
    };
    std::vector<Service> services_;
    bool degraded_ = false;

    // --- Observability (null until bind_metrics) -------------------------
    obs::Counter* m_sheds_ = nullptr;
    obs::Gauge* m_degraded_ = nullptr;
};

}  // namespace cres::core
