// Memory monitor: bus-level watch on memory behaviour. Detects
//  - writes into code regions (code tampering / injection),
//  - corruption of stack canary words,
//  - bulk-read patterns over sensitive regions (exfiltration staging).
#pragma once

#include <map>
#include <set>

#include "core/monitor/monitor.h"
#include "core/window.h"
#include "mem/bus.h"

namespace cres::core {

class MemoryMonitor : public Monitor, public mem::BusObserver {
public:
    MemoryMonitor(EventSink& sink, const sim::Simulator& sim, mem::Bus& bus);
    ~MemoryMonitor() override;

    std::string description() const override {
        return "code-region write detection, stack-canary watch, "
               "bulk-read exfiltration heuristic";
    }

    /// Marks a bus region as code: any write is a critical event.
    void protect_code_region(const std::string& region);

    /// Marks an address range as code (for regions that mix text and
    /// data, e.g. a unified application RAM).
    void protect_code_range(mem::Addr base, mem::Addr size);

    /// Registers a canary word; a write changing it is critical.
    void watch_canary(mem::Addr addr, std::uint32_t expected);

    /// Flags reads of [base, base+size) — more than `threshold` bytes
    /// read within `window` cycles raises an alert.
    void watch_sensitive(const std::string& name, mem::Addr base,
                         std::uint32_t size, std::uint32_t threshold,
                         sim::Cycle window);

    void on_transaction(const mem::BusTransaction& txn) override;

private:
    struct SensitiveRange {
        std::string name;
        mem::Addr base;
        std::uint32_t size;
        std::uint32_t threshold;
        sim::Cycle window;
        SlidingWindow reads;  ///< Weighted by bytes read.
    };

    struct CodeRange {
        mem::Addr base;
        mem::Addr size;
    };

    const sim::Simulator& sim_;
    mem::Bus& bus_;
    std::set<std::string> code_regions_;
    std::vector<CodeRange> code_ranges_;
    std::map<mem::Addr, std::uint32_t> canaries_;
    std::vector<SensitiveRange> sensitive_;
};

}  // namespace cres::core
