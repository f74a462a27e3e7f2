#include "obs/flight_recorder.h"

#include <algorithm>

namespace cres::obs {

bool FlightRecorder::make_room() {
    if (ring_.size() == capacity_) {
        if (capacity_ == 0) return false;
        head_ = 0;
        return true;
    }
    const std::size_t grown =
        std::min(capacity_, std::max<std::size_t>(1, 2 * ring_.size()));
    ring_.reserve(grown);  // Exactly `grown` slots: one allocation a step.
    ring_.resize(grown);
    return true;
}

std::uint16_t FlightRecorder::intern(std::string_view name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<std::uint16_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);
    return id;
}

std::string_view FlightRecorder::name(std::uint16_t id) const noexcept {
    return id < names_.size() ? std::string_view(names_[id])
                              : std::string_view("?");
}

void FlightRecorder::record_slow(std::uint64_t at, std::string_view source,
                                 std::string_view kind, std::uint8_t severity,
                                 FlightRecordType type, std::uint64_t a,
                                 std::uint64_t b, std::string_view detail) {
    if (capacity_ == 0) return;
    record(at, intern(source), intern(kind), severity, type, a, b, detail);
}

std::vector<FlightRecord> FlightRecorder::snapshot_since(
    std::uint64_t cycle) const {
    std::vector<FlightRecord> out;
    for_each([&](const FlightRecord& r) {
        if (r.at >= cycle) out.push_back(r);
    });
    return out;
}

std::vector<FlightRecord> FlightRecorder::snapshot_emitted_since(
    std::uint64_t seq) const {
    std::vector<FlightRecord> out;
    // The oldest live record has sequence number emitted_ - count_.
    std::uint64_t record_seq = emitted_ - count_;
    for_each([&](const FlightRecord& r) {
        if (record_seq >= seq) out.push_back(r);
        ++record_seq;
    });
    return out;
}

}  // namespace cres::obs
