#include "core/monitor/bus_monitor.h"

namespace cres::core {

BusMonitor::BusMonitor(EventSink& sink, const sim::Simulator& sim,
                       mem::Bus& bus)
    : Monitor("bus-monitor", sink), sim_(sim), bus_(bus) {
    bus_.add_observer(this);
}

BusMonitor::~BusMonitor() {
    bus_.remove_observer(this);
}

void BusMonitor::allow_master(mem::Master master,
                              std::set<std::string> regions) {
    allowlist_[master] = std::move(regions);
}

void BusMonitor::set_probe_threshold(std::uint32_t threshold,
                                     sim::Cycle window) {
    probe_threshold_ = threshold;
    probe_window_ = window;
}

void BusMonitor::on_transaction(const mem::BusTransaction& txn) {
    if (!enabled()) return;
    const sim::Cycle now = sim_.now();
    note_poll(now);

    switch (txn.response) {
        case mem::BusResponse::kSecurityViolation:
            emit(now, EventCategory::kBusViolation, EventSeverity::kAlert,
                 txn.region,
                 "non-secure " + mem::master_name(txn.attr.master) +
                     " access to secure region",
                 txn.addr, txn.data);
            break;
        case mem::BusResponse::kReadOnly:
            emit(now, EventCategory::kBusViolation, EventSeverity::kAdvisory,
                 txn.region, "write to read-only region", txn.addr, txn.data);
            break;
        case mem::BusResponse::kIsolated:
            emit(now, EventCategory::kBusViolation, EventSeverity::kAdvisory,
                 txn.region, "access to isolated region", txn.addr, 0);
            break;
        case mem::BusResponse::kDecodeError: {
            const std::uint64_t errors =
                decode_errors_.add(now, probe_window_);
            if (errors >= probe_threshold_) {
                emit(now, EventCategory::kBusViolation, EventSeverity::kAlert,
                     "address-space",
                     "address-space probing: " + std::to_string(errors) +
                         " decode errors in window",
                     txn.addr, errors);
                decode_errors_.clear();
            } else {
                emit(now, EventCategory::kBusViolation,
                     EventSeverity::kAdvisory, "address-space",
                     "decode error", txn.addr, 0);
            }
            break;
        }
        case mem::BusResponse::kDeviceError:
            emit(now, EventCategory::kBusViolation, EventSeverity::kAdvisory,
                 txn.region, "device error response", txn.addr, 0);
            break;
        case mem::BusResponse::kOk: {
            const auto it = allowlist_.find(txn.attr.master);
            if (it != allowlist_.end() &&
                it->second.count(txn.region) == 0) {
                emit(now, EventCategory::kBusViolation, EventSeverity::kAlert,
                     txn.region,
                     mem::master_name(txn.attr.master) +
                         " outside allowed regions",
                     txn.addr, txn.data);
            }
            break;
        }
    }
}

}  // namespace cres::core
