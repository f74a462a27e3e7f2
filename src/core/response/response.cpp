#include "core/response/response.h"

namespace cres::core {

namespace {

/// Actions that neutralise the threat in place (vs. recover/notify) —
/// these mark the CSF contain phase of the open incident.
constexpr bool is_containment(ResponseAction action) noexcept {
    switch (action) {
        case ResponseAction::kIsolateResource:
        case ResponseAction::kKillTask:
        case ResponseAction::kZeroiseKeys:
        case ResponseAction::kRateLimitPeripheral:
        case ResponseAction::kPartitionCache:
            return true;
        default:
            return false;
    }
}

}  // namespace

ActiveResponseManager::ActiveResponseManager(ResponseContext context)
    : ctx_(std::move(context)) {}

void ActiveResponseManager::bind_metrics(obs::MetricsRegistry& registry) {
    m_actions_total_ = &registry.counter("cres_response_actions_total");
    for (std::size_t i = 0; i < kResponseActionCount; ++i) {
        m_by_action_[i] = &registry.counter(
            "cres_response_action_total{action=\"" +
            action_name(static_cast<ResponseAction>(i)) + "\"}");
    }
    m_containment_latency_ =
        &registry.histogram("cres_response_containment_latency_cycles");
}

std::string ActiveResponseManager::execute(ResponseAction action,
                                           const MonitorEvent& trigger) {
    const std::string outcome = run(action, trigger);
    const sim::Cycle now = ctx_.sim != nullptr ? ctx_.sim->now() : trigger.at;
    ++total_;
    if (m_actions_total_ != nullptr) {
        m_actions_total_->inc();
        const auto idx = static_cast<std::size_t>(action);
        if (idx < kResponseActionCount) m_by_action_[idx]->inc();
    }
    if (is_containment(action)) {
        if (m_containment_latency_ != nullptr) {
            m_containment_latency_->record(now - trigger.at);
        }
        if (ctx_.ssm != nullptr) ctx_.ssm->notify_contained(now);
    }
    return outcome;
}

std::string ActiveResponseManager::run(ResponseAction action,
                                       const MonitorEvent& trigger) {
    const sim::Cycle now = ctx_.sim != nullptr ? ctx_.sim->now() : trigger.at;
    switch (action) {
        case ResponseAction::kLogOnly:
            return "recorded";

        case ResponseAction::kAlertOperator:
            if (!ctx_.operator_alert) return "unavailable: no alert channel";
            ctx_.operator_alert(trigger.monitor + ": " + trigger.detail);
            return "operator notified";

        case ResponseAction::kIsolateResource: {
            if (ctx_.bus == nullptr) return "unavailable: no bus handle";
            if (ctx_.bus->isolate_region(trigger.resource)) {
                return "region '" + trigger.resource + "' fenced off";
            }
            return "no such region '" + trigger.resource + "'";
        }

        case ResponseAction::kKillTask:
            if (ctx_.cpu == nullptr) return "unavailable: no cpu handle";
            ctx_.cpu->halt();
            return "cpu halted";

        case ResponseAction::kRestartTask: {
            if (ctx_.recovery != nullptr && ctx_.recovery->has_checkpoint()) {
                if (ctx_.ssm != nullptr) ctx_.ssm->notify_recovery_started(now);
                ctx_.recovery->restore(now);
                if (ctx_.ssm != nullptr) {
                    ctx_.ssm->notify_recovery_complete(now, false);
                }
                return "restored checkpoint and restarted";
            }
            return "unavailable: no checkpoint";
        }

        case ResponseAction::kZeroiseKeys: {
            if (ctx_.keystore == nullptr) return "unavailable: no key store";
            const std::size_t wiped = ctx_.keystore->zeroise_all();
            return "zeroised " + std::to_string(wiped) + " keys";
        }

        case ResponseAction::kRollbackFirmware: {
            if (ctx_.update_agent == nullptr) {
                return "unavailable: no update agent";
            }
            if (!ctx_.update_agent->inactive_image().has_value()) {
                return "no fallback image";
            }
            (void)ctx_.update_agent->activate();
            if (ctx_.system_reset) ctx_.system_reset();
            return "rolled back to fallback image";
        }

        case ResponseAction::kRestoreCheckpoint: {
            if (ctx_.recovery == nullptr || !ctx_.recovery->has_checkpoint()) {
                return "unavailable: no checkpoint";
            }
            if (ctx_.ssm != nullptr) ctx_.ssm->notify_recovery_started(now);
            ctx_.recovery->restore(now);
            if (ctx_.ssm != nullptr) {
                ctx_.ssm->notify_recovery_complete(now, false);
            }
            return "checkpoint restored";
        }

        case ResponseAction::kDegrade: {
            if (ctx_.degradation == nullptr) {
                return "unavailable: no degradation manager";
            }
            const std::size_t shed = ctx_.degradation->degrade();
            if (ctx_.ssm != nullptr) {
                ctx_.ssm->notify_recovery_complete(now, true);
            }
            return "shed " + std::to_string(shed) + " non-critical services";
        }

        case ResponseAction::kRateLimitPeripheral:
            if (!ctx_.rate_limiter) return "unavailable: no rate limiter";
            return ctx_.rate_limiter(trigger.resource);

        case ResponseAction::kPartitionCache:
            if (!ctx_.cache_partitioner) {
                return "unavailable: no partitionable cache";
            }
            return ctx_.cache_partitioner(trigger.resource);

        case ResponseAction::kResetSystem:
            if (!ctx_.system_reset) return "unavailable: no reset line";
            ctx_.system_reset();
            return "system reset";
    }
    return "unknown action";
}

}  // namespace cres::core
