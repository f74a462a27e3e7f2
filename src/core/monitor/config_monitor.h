// Configuration-audit monitor: snapshots the interconnect's security
// configuration (region attributes) as a golden reference at arm time,
// then periodically re-audits it. Detects the bus-attribute tampering
// attack of [34], which no transaction-level monitor can see (the
// tampered accesses are "legal" once the attribute has been cleared).
// Audits fall on a grid, the first at `period` (or at construction if
// later), then every `period` cycles. An audit is made, and counted as
// a poll, only when the bus configuration generation has moved since
// the last comparison: only map() and set_secure_only() change a
// RegionConfig, and both bump it. The monitor stays a tickable so an
// audit runs in tick order at its grid cycle, after a response earlier
// in that cycle has bumped the generation.
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

    /// Quiescence: kIdleForever until the generation moves (or before
    /// a golden snapshot), then the next audit cycle on the grid.
    [[nodiscard]] sim::Cycle next_activity(sim::Cycle now) override;

    [[nodiscard]] std::uint64_t drifts_detected() const noexcept {
        return drifts_;
    }

private:
    static constexpr std::uint64_t kUncompared = ~std::uint64_t{0};

    mem::Bus& bus_;
    sim::Cycle period_;
    sim::Cycle first_audit_;  ///< Grid origin.
    std::vector<mem::RegionConfig> golden_;
    /// Bus::config_generation() at the last comparison (or golden
    /// snapshot); kUncompared forces the next audit to compare.
    std::uint64_t compared_generation_ = kUncompared;
    std::set<std::string> drifted_;  ///< Latched per-region (one event each).
    std::uint64_t drifts_ = 0;
};

}  // namespace cres::core
