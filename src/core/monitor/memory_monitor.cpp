#include "core/monitor/memory_monitor.h"

namespace cres::core {

MemoryMonitor::MemoryMonitor(EventSink& sink, const sim::Simulator& sim,
                             mem::Bus& bus)
    : Monitor("memory-monitor", sink), sim_(sim), bus_(bus) {
    bus_.add_observer(this);
}

MemoryMonitor::~MemoryMonitor() {
    bus_.remove_observer(this);
}

void MemoryMonitor::protect_code_region(const std::string& region) {
    code_regions_.insert(region);
}

void MemoryMonitor::protect_code_range(mem::Addr base, mem::Addr size) {
    code_ranges_.push_back(CodeRange{base, size});
}

void MemoryMonitor::watch_canary(mem::Addr addr, std::uint32_t expected) {
    canaries_[addr] = expected;
}

void MemoryMonitor::watch_sensitive(const std::string& name, mem::Addr base,
                                    std::uint32_t size,
                                    std::uint32_t threshold,
                                    sim::Cycle window) {
    sensitive_.push_back(
        SensitiveRange{name, base, size, threshold, window, {}});
}

void MemoryMonitor::on_transaction(const mem::BusTransaction& txn) {
    if (!enabled()) return;
    if (txn.response != mem::BusResponse::kOk) return;
    const sim::Cycle now = sim_.now();
    note_poll(now);

    if (txn.op == mem::BusOp::kWrite) {
        bool in_code = code_regions_.count(txn.region) != 0;
        for (const auto& range : code_ranges_) {
            if (txn.addr >= range.base && txn.addr < range.base + range.size) {
                in_code = true;
                break;
            }
        }
        if (in_code) {
            emit(now, EventCategory::kMemory, EventSeverity::kCritical,
                 txn.region, "write into code region (tampering)", txn.addr,
                 txn.data);
        }
        // Canary check: any write overlapping a canary word that does
        // not preserve its value.
        for (const auto& [addr, expected] : canaries_) {
            if (txn.addr <= addr + 3 && addr <= txn.addr + txn.size - 1) {
                if (txn.data != expected || txn.size != 4 ||
                    txn.addr != addr) {
                    emit(now, EventCategory::kMemory, EventSeverity::kCritical,
                         txn.region, "stack canary overwritten", addr,
                         txn.data);
                }
            }
        }
    } else {  // Read or fetch.
        for (auto& range : sensitive_) {
            if (txn.addr >= range.base &&
                txn.addr < range.base + range.size) {
                const std::uint64_t in_window =
                    range.reads.add(now, range.window, txn.size);
                if (in_window >= range.threshold) {
                    emit(now, EventCategory::kMemory, EventSeverity::kAlert,
                         range.name,
                         "bulk read of sensitive range (" +
                             std::to_string(in_window) + " bytes in window)",
                         txn.addr, in_window);
                    range.reads.clear();
                }
            }
        }
    }
}

}  // namespace cres::core
