#include "core/response/degradation.h"

#include "util/error.h"

namespace cres::core {

void DegradationManager::register_service(
    const std::string& name, bool critical,
    std::function<void(bool)> set_enabled) {
    if (!set_enabled) {
        throw Error("DegradationManager: null service control for " + name);
    }
    services_.push_back(Service{name, critical, true, std::move(set_enabled)});
}

void DegradationManager::bind_metrics(obs::MetricsRegistry& registry) {
    m_sheds_ = &registry.counter("cres_degradation_services_shed_total");
    m_degraded_ = &registry.gauge("cres_degradation_degraded");
}

std::size_t DegradationManager::degrade() {
    std::size_t shed = 0;
    for (auto& s : services_) {
        if (!s.critical && s.enabled) {
            s.enabled = false;
            s.set_enabled(false);
            ++shed;
        }
    }
    degraded_ = true;
    if (m_sheds_ != nullptr) {
        m_sheds_->inc(shed);
        m_degraded_->set(1);
    }
    return shed;
}

void DegradationManager::restore() {
    for (auto& s : services_) {
        if (!s.enabled) {
            s.enabled = true;
            s.set_enabled(true);
        }
    }
    degraded_ = false;
    if (m_degraded_ != nullptr) m_degraded_->set(0);
}

}  // namespace cres::core
