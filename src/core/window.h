// Sliding event window: the "N events within W cycles" rule that the
// policy engine and the resource monitors share. The thresholds, the
// clears and the event text stay with each caller. Entries live in a
// vector, so a window that never records anything allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace cres::core {

class SlidingWindow {
public:
    /// A window no entry ever leaves.
    static constexpr sim::Cycle kNoExpiry = ~sim::Cycle{0};

    /// Records `weight` at cycle `at`, drops the entries recorded more
    /// than `window` cycles before `at`, and returns the total weight
    /// still in the window, this entry included.
    std::uint64_t add(sim::Cycle at, sim::Cycle window,
                      std::uint64_t weight = 1) {
        entries_.push_back(Entry{at, weight});
        total_ += weight;
        auto oldest = entries_.begin();
        while (at > oldest->at && at - oldest->at > window) {
            total_ -= oldest->weight;
            ++oldest;
        }
        entries_.erase(entries_.begin(), oldest);
        return total_;
    }

    void clear() noexcept {
        entries_.clear();
        total_ = 0;
    }

private:
    struct Entry {
        sim::Cycle at;
        std::uint64_t weight;
    };
    std::vector<Entry> entries_;
    std::uint64_t total_ = 0;
};

}  // namespace cres::core
