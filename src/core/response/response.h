// The Active Response Manager — the paper's third microarchitectural
// characteristic (§V-3). Executes the response and recovery strategies
// the SSM's policy engine selects: resource isolation on the bus fabric,
// task kill/restart, key zeroisation, firmware rollback, checkpoint
// restore, graceful degradation and (last resort) system reset.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "boot/update.h"
#include "core/response/degradation.h"
#include "core/response/recovery.h"
#include "core/ssm/ssm.h"
#include "crypto/keystore.h"
#include "isa/cpu.h"
#include "mem/bus.h"

namespace cres::core {

/// Handles to the platform facilities the response manager drives.
/// Null members simply make the corresponding action report
/// "unavailable" (a platform without an update agent cannot roll back).
struct ResponseContext {
    mem::Bus* bus = nullptr;
    isa::Cpu* cpu = nullptr;
    crypto::KeyStore* keystore = nullptr;
    boot::UpdateAgent* update_agent = nullptr;
    RecoveryManager* recovery = nullptr;
    DegradationManager* degradation = nullptr;
    SystemSecurityManager* ssm = nullptr;
    const sim::Simulator* sim = nullptr;
    std::function<void(const std::string&)> operator_alert;
    std::function<void()> system_reset;
    /// Clamps the named peripheral to a safe envelope; returns outcome.
    std::function<std::string(const std::string& resource)> rate_limiter;
    /// Partitions/flushes the named cache to close timing channels.
    std::function<std::string(const std::string& resource)> cache_partitioner;
};

class ActiveResponseManager : public ResponseExecutor {
public:
    explicit ActiveResponseManager(ResponseContext context);

    std::string execute(ResponseAction action,
                        const MonitorEvent& trigger) override;

    /// Registers per-action execution counters and the containment
    /// latency histogram (trigger emit -> containment action done).
    void bind_metrics(obs::MetricsRegistry& registry);

    /// Actions executed so far. The SSM's evidence log seals each one
    /// it dispatches as an "action" record.
    [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

private:
    std::string run(ResponseAction action, const MonitorEvent& trigger);

    ResponseContext ctx_;
    std::uint64_t total_ = 0;

    // --- Observability (null until bind_metrics) -------------------------
    obs::Counter* m_actions_total_ = nullptr;
    std::array<obs::Counter*, kResponseActionCount> m_by_action_{};
    obs::Histogram* m_containment_latency_ = nullptr;
};

}  // namespace cres::core
