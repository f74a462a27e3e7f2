// Configuration-audit monitor: snapshots the interconnect's security
// configuration (region attributes) as a golden reference at arm time,
// then periodically re-audits it. Detects the bus-attribute tampering
// attack of [34], which no transaction-level monitor can see (the
// tampered accesses are "legal" once the attribute has been cleared).
// An audit compares regions only when the bus configuration generation
// has moved since the last comparison: only map() and
// set_secure_only() change a RegionConfig, and both bump it, so a
// skipped comparison could not have reported anything.
#pragma once

#include <set>
#include <vector>

#include "core/monitor/monitor.h"
#include "mem/bus.h"

namespace cres::core {

class ConfigMonitor : public Monitor, public sim::Tickable {
public:
    ConfigMonitor(EventSink& sink, const sim::Simulator& sim, mem::Bus& bus,
                  sim::Cycle period = 200);

    std::string description() const override {
        return "periodic audit of interconnect security attributes "
               "against the boot-time golden configuration";
    }

    /// Captures the current bus configuration as the golden reference.
    void snapshot_golden();

    void tick(sim::Cycle now) override;

    /// Quiescence: audits fire at an absolute deadline; ticks before it
    /// are pure no-ops, so there is nothing to replay on skip.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override {
        return next_audit_ > now ? next_audit_ : now;
    }

    [[nodiscard]] std::uint64_t drifts_detected() const noexcept {
        return drifts_;
    }

private:
    static constexpr std::uint64_t kUncompared = ~std::uint64_t{0};

    const sim::Simulator& sim_;
    mem::Bus& bus_;
    sim::Cycle period_;
    sim::Cycle next_audit_;
    std::vector<mem::RegionConfig> golden_;
    /// Bus::config_generation() at the last comparison (or golden
    /// snapshot); kUncompared forces the next audit to compare.
    std::uint64_t compared_generation_ = kUncompared;
    std::set<std::string> drifted_;  ///< Latched per-region (one event each).
    std::uint64_t drifts_ = 0;
};

}  // namespace cres::core
