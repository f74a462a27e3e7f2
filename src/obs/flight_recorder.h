// Flight recorder: a bounded ring of cycle-stamped telemetry records —
// the black box every device's monitors and SSM feed continuously.
// When an incident closes, the SSM snapshots the ring into a sealed
// postmortem bundle (postmortem.h) so the pre/post-incident telemetry
// window survives as a verifiable artefact even though the ring itself
// keeps rolling.
//
// Hot-path contract (mirrors MetricsRegistry): intern() is the cold
// path and may allocate; record() allocates only while the ring grows
// — producers hold the recorder pointer plus pre-interned ids, and an
// unbound producer (null pointer) pays one branch. The capacity fixed
// at construction is a maximum: the slot vector starts empty and
// doubles as records arrive, never past the capacity, so a recorder
// allocates at most ceil(log2 capacity) + 1 times and its memory
// follows the records it holds. Once the ring reaches the capacity,
// each record evicts the oldest (bounded black-box capture). On a
// passive node, which has no SSM, the ring is the node's volatile
// telemetry, and a reboot clears it (platform/node.h).
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cres::obs {

/// How an exporter should render the record: a point event on its
/// source's track, or a counter sample (value in `a`).
enum class FlightRecordType : std::uint8_t { kInstant = 0, kCounter = 1 };

/// One POD ring slot. `source` and `kind` are interned-name ids;
/// `detail` is a NUL-padded truncated context snippet (copying into it
/// is the price of staying allocation-free).
struct FlightRecord {
    static constexpr std::size_t kDetailCapacity = 32;

    std::uint64_t at = 0;
    std::uint16_t source = 0;
    std::uint16_t kind = 0;
    std::uint8_t severity = 0;  ///< Numeric core::EventSeverity (0 = info).
    FlightRecordType type = FlightRecordType::kInstant;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::array<char, kDetailCapacity> detail{};

    [[nodiscard]] std::string_view detail_view() const noexcept {
        std::size_t len = 0;
        while (len < kDetailCapacity && detail[len] != '\0') ++len;
        return {detail.data(), len};
    }
};

class FlightRecorder {
public:
    /// Holds at most `capacity` records; slots are allocated as records
    /// arrive. 0 disables the recorder (record() becomes a no-op,
    /// nothing should bind to it).
    explicit FlightRecorder(std::size_t capacity) : capacity_(capacity) {}

    // --- Cold path --------------------------------------------------------
    /// Get-or-create a stable id for `name`. Ids are assigned in first-
    /// intern order, so a deterministic binding order yields a
    /// deterministic name table.
    std::uint16_t intern(std::string_view name);

    /// Name for an interned id ("?" for ids never handed out).
    [[nodiscard]] std::string_view name(std::uint16_t id) const noexcept;

    /// Snapshot of the id -> name table (index == id).
    [[nodiscard]] const std::vector<std::string>& names() const noexcept {
        return names_;
    }

    // --- Hot path ---------------------------------------------------------
    /// Appends one record, evicting the oldest when full. Allocates
    /// only when the ring grows; `detail` is truncated to
    /// FlightRecord::kDetailCapacity.
    void record(std::uint64_t at, std::uint16_t source, std::uint16_t kind,
                std::uint8_t severity, FlightRecordType type, std::uint64_t a,
                std::uint64_t b, std::string_view detail) {
        if (head_ == ring_.size() && !make_room()) return;
        FlightRecord& slot = ring_[head_++];
        if (count_ < capacity_) ++count_;
        ++emitted_;
        slot.at = at;
        slot.source = source;
        slot.kind = kind;
        slot.severity = severity;
        slot.type = type;
        slot.a = a;
        slot.b = b;
        const std::size_t n =
            detail.size() < FlightRecord::kDetailCapacity
                ? detail.size()
                : FlightRecord::kDetailCapacity;
        // An empty string_view may carry a null data() pointer, which
        // memcpy must never receive even for n == 0.
        if (n != 0) std::memcpy(slot.detail.data(), detail.data(), n);
        if (n < FlightRecord::kDetailCapacity) {
            std::memset(slot.detail.data() + n, 0,
                        FlightRecord::kDetailCapacity - n);
        }
    }

    /// Rare-event convenience (reboot, operator alert): interns the
    /// names on the fly, so it may allocate — not for per-cycle use.
    void record_slow(std::uint64_t at, std::string_view source,
                     std::string_view kind, std::uint8_t severity,
                     FlightRecordType type, std::uint64_t a, std::uint64_t b,
                     std::string_view detail);

    // --- Queries (cold) ---------------------------------------------------
    /// The configured maximum, not the slots allocated so far.
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    /// Slots allocated so far: the smallest power of two that held the
    /// records, capped at capacity().
    [[nodiscard]] std::size_t allocated() const noexcept {
        return ring_.size();
    }
    [[nodiscard]] std::size_t size() const noexcept { return count_; }
    [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
    /// Records ever emitted (monotonic; also the sequence number the
    /// next record will get).
    [[nodiscard]] std::uint64_t total_emitted() const noexcept {
        return emitted_;
    }
    /// Records evicted by the ring wrapping.
    [[nodiscard]] std::uint64_t evicted() const noexcept {
        return emitted_ - count_;
    }

    /// Visits live records oldest -> newest.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        const std::size_t first = oldest_index();
        for (std::size_t i = 0; i < count_; ++i) {
            fn(ring_[(first + i) % ring_.size()]);
        }
    }

    /// Live records with at >= cycle, oldest -> newest (copies; cold).
    [[nodiscard]] std::vector<FlightRecord> snapshot_since(
        std::uint64_t cycle) const;

    /// Live records whose global sequence number is >= seq (i.e. the
    /// records emitted after a total_emitted() watermark was taken).
    [[nodiscard]] std::vector<FlightRecord> snapshot_emitted_since(
        std::uint64_t seq) const;

    void clear() noexcept {
        head_ = 0;
        count_ = 0;
        // emitted_ keeps counting: eviction accounting stays truthful.
        // The slots stay allocated for the records to come.
    }

private:
    /// Called when head_ has reached the end of the slots: doubles them
    /// (up to capacity_), or wraps head_ once they span the capacity.
    /// False when the recorder is disabled.
    bool make_room();

    [[nodiscard]] std::size_t oldest_index() const noexcept {
        // The ring wraps only at full capacity, so below it the live
        // records are exactly [head_ - count_, head_).
        return count_ <= head_ ? head_ - count_
                               : head_ + ring_.size() - count_;
    }

    std::size_t capacity_;
    std::vector<FlightRecord> ring_;  ///< Grows to capacity_, then wraps.
    std::size_t head_ = 0;   ///< Next slot to write; == size() at the end.
    std::size_t count_ = 0;  ///< Live records.
    std::uint64_t emitted_ = 0;
    std::vector<std::string> names_;
    std::map<std::string, std::uint16_t, std::less<>> ids_;
};

}  // namespace cres::obs
