// Bus monitor: watches every interconnect transaction. Detects
//  - security-violation / isolated / read-only responses (attack or
//    misbehaving master),
//  - address-space probing (bursts of decode errors),
//  - masters touching regions outside their provisioned allowlist
//    (e.g. the DMA engine reading key storage).
#pragma once

#include <map>
#include <set>

#include "core/monitor/monitor.h"
#include "core/window.h"
#include "mem/bus.h"
#include "sim/simulator.h"

namespace cres::core {

class BusMonitor : public Monitor, public mem::BusObserver {
public:
    BusMonitor(EventSink& sink, const sim::Simulator& sim, mem::Bus& bus);
    ~BusMonitor() override;

    std::string description() const override {
        return "interconnect transaction screening, master/region access "
               "policy, probe detection";
    }

    /// Restricts a master to the named regions. Unlisted masters are
    /// unrestricted.
    void allow_master(mem::Master master, std::set<std::string> regions);

    /// Probe detection: `threshold` decode errors within `window`
    /// cycles escalate to an alert.
    void set_probe_threshold(std::uint32_t threshold, sim::Cycle window);

    void on_transaction(const mem::BusTransaction& txn) override;

private:
    const sim::Simulator& sim_;
    mem::Bus& bus_;
    std::map<mem::Master, std::set<std::string>> allowlist_;
    SlidingWindow decode_errors_;
    std::uint32_t probe_threshold_ = 8;
    sim::Cycle probe_window_ = 1000;
};

}  // namespace cres::core
