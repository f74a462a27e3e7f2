// Cycle-accurate metrics registry: counters, gauges and log2-bucket
// histograms, all timestamped in simulated cycles — never wall clock —
// so every value is bit-identical at any worker_threads setting.
//
// Hot-path contract: registration (counter()/gauge()/histogram()) is
// the cold path and may allocate; the returned references are stable
// for the registry's lifetime. Incrementing a counter or setting a
// gauge through them never allocates; a histogram allocates its
// buckets once, at its first sample. Components hold the references,
// not names.
//
// Storage: series names live in one process-wide table that maps
// (kind, name) to a dense id. A registry keeps its values in per-kind
// arrays indexed by that id, plus a presence bit per id, so a node's
// series cost a few bytes each and merging two registries is addition
// by index. Ids are assigned in first-registration order across the
// whole process, which varies with thread scheduling, so they never
// reach any output: exports walk names in sorted order.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace cres::obs {

/// Monotonically increasing event count.
class Counter {
public:
    void inc(std::uint64_t n = 1) noexcept { value_ += n; }
    [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

private:
    friend class MetricsRegistry;
    std::uint64_t value_ = 0;
};

/// Point-in-time level; remembers its high-water mark.
class Gauge {
public:
    void set(std::int64_t v) noexcept {
        value_ = v;
        if (v > max_) max_ = v;
    }
    void add(std::int64_t delta) noexcept { set(value_ + delta); }
    [[nodiscard]] std::int64_t value() const noexcept { return value_; }
    [[nodiscard]] std::int64_t max() const noexcept { return max_; }

private:
    friend class MetricsRegistry;
    std::int64_t value_ = 0;
    std::int64_t max_ = 0;
};

/// Log2-bucket histogram over uint64 samples (cycle latencies, sizes).
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i - 1], so the inclusive upper bound is 2^i - 1. The
/// buckets are allocated at the first sample, so a histogram that is
/// registered but never recorded holds no bucket storage.
class Histogram {
public:
    static constexpr std::size_t kBucketCount = 65;

    static constexpr std::size_t bucket_index(std::uint64_t v) noexcept {
        // Bit width IS the bucket: 0 for v==0, else 1 + floor(log2 v).
        // std::bit_width compiles to a single lzcnt on the hot path.
        return static_cast<std::size_t>(std::bit_width(v));
    }

    /// Inclusive upper bound of bucket `i` (i >= 1); bucket 0 covers {0}.
    static constexpr std::uint64_t bucket_upper(std::size_t i) noexcept {
        if (i == 0) return 0;
        if (i >= 64) return ~std::uint64_t{0};
        return (std::uint64_t{1} << i) - 1;
    }

    void record(std::uint64_t v) {
        if (buckets_.empty()) buckets_.resize(kBucketCount);
        ++buckets_[bucket_index(v)];
        sum_ += v;
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
    }

    /// Total samples. Derived by summing buckets: queries are cold, so
    /// the hot path doesn't pay for a separate count field.
    [[nodiscard]] std::uint64_t count() const noexcept {
        std::uint64_t n = 0;
        for (const std::uint64_t b : buckets_) n += b;
        return n;
    }
    [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
    /// Smallest recorded sample (0 when empty).
    [[nodiscard]] std::uint64_t min() const noexcept {
        return count() == 0 ? 0 : min_;
    }
    [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
    [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
        return i < buckets_.size() ? buckets_[i] : 0;
    }
    /// Index of the highest non-empty bucket (0 when empty).
    [[nodiscard]] std::size_t highest_bucket() const noexcept;

    /// Estimated q-quantile (q in [0,1], clamped), Prometheus
    /// histogram_quantile style: rank = q * count, linear interpolation
    /// between the covering bucket's boundaries, truncated to an
    /// integer and clamped to [min(), max()] so degenerate buckets
    /// (all samples equal) estimate exactly. 0 when empty.
    [[nodiscard]] std::uint64_t estimate_quantile(double q) const noexcept;
    [[nodiscard]] std::uint64_t p50() const noexcept {
        return estimate_quantile(0.50);
    }
    [[nodiscard]] std::uint64_t p95() const noexcept {
        return estimate_quantile(0.95);
    }
    [[nodiscard]] std::uint64_t p99() const noexcept {
        return estimate_quantile(0.99);
    }

private:
    friend class MetricsRegistry;
    /// kBucketCount entries, or empty until the first sample.
    std::vector<std::uint64_t> buckets_;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

namespace detail {

/// One kind's values, indexed by series id, in fixed 16-slot chunks.
/// A chunk is allocated when an id in it is first added and never
/// resized, so growth never moves a live value, and an unused store
/// allocates nothing.
template <typename T>
class SeriesSlots {
public:
    /// The value for `id`, default-constructed and marked present on
    /// first use.
    T& get_or_add(std::size_t id) {
        const std::size_t c = id / kChunkSlots;
        if (c >= chunks_.size()) {
            chunks_.resize(c + 1);
            present_.resize(c + 1);
        }
        if (chunks_[c].empty()) chunks_[c].resize(kChunkSlots);
        present_[c] |= std::uint32_t{1} << (id % kChunkSlots);
        return chunks_[c][id % kChunkSlots];
    }

    /// nullptr when `id` was never added.
    [[nodiscard]] const T* find(std::size_t id) const noexcept {
        const std::size_t c = id / kChunkSlots;
        if (c >= chunks_.size() ||
            (present_[c] >> (id % kChunkSlots) & 1u) == 0) {
            return nullptr;
        }
        return &chunks_[c][id % kChunkSlots];
    }

    [[nodiscard]] std::size_t size() const noexcept {
        std::size_t n = 0;
        for (const std::uint32_t bits : present_) {
            n += static_cast<std::size_t>(std::popcount(bits));
        }
        return n;
    }

    /// Visits present values in id order as fn(id, value).
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t c = 0; c < present_.size(); ++c) {
            for (std::uint32_t bits = present_[c]; bits != 0;
                 bits &= bits - 1) {
                const auto slot =
                    static_cast<std::size_t>(std::countr_zero(bits));
                fn(c * kChunkSlots + slot, chunks_[c][slot]);
            }
        }
    }

private:
    static constexpr std::size_t kChunkSlots = 16;

    std::vector<std::vector<T>> chunks_;  ///< Empty or kChunkSlots each.
    std::vector<std::uint32_t> present_;  ///< Bit i of [c]: chunks_[c][i].
};

}  // namespace detail

/// Named metric store with deterministic (name-ordered) export and
/// merge. Metric names follow Prometheus conventions and may carry a
/// label set inline: `cres_monitor_polls_total{monitor="bus-monitor"}`.
/// Registration is get-or-create: components binding the same name
/// share one series. Registration, find_*() and the exports read the
/// process-wide series table under its lock, so they are safe while
/// other registries register on other threads; one registry is still
/// used by one thread at a time.
class MetricsRegistry {
public:
    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    Histogram& histogram(const std::string& name);

    /// Read-only lookups (nullptr when the metric was never registered).
    [[nodiscard]] const Counter* find_counter(const std::string& name) const;
    [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
    [[nodiscard]] const Histogram* find_histogram(
        const std::string& name) const;

    [[nodiscard]] std::size_t size() const noexcept {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /// Registers the `# HELP` text emitted for `base` (the metric name
    /// without labels) in the Prometheus exposition. First registration
    /// wins, so registering the same help twice is idempotent.
    void set_help(std::string_view base, std::string_view text) {
        help_.emplace(std::string(base), std::string(text));
    }
    /// nullptr when no help text was registered for `base`.
    [[nodiscard]] const std::string* find_help(std::string_view base) const;

    /// Deterministic reduction, by series id: counters and histogram
    /// buckets sum, gauges sum values and take the max of high-water
    /// marks; help texts union (first wins). Safe to call repeatedly
    /// (fleet folds devices in index order so the result is
    /// thread-count invariant).
    void merge_from(const MetricsRegistry& other);

    /// Prometheus text exposition (metrics sorted by name; histograms
    /// emit cumulative le-buckets up to the highest non-empty bucket,
    /// then +Inf, _sum and _count). Bases with registered help text get
    /// a `# HELP` line immediately before their `# TYPE` line.
    [[nodiscard]] std::string prometheus() const;

    /// One JSON object mirroring the exposition, for CI artifacts and
    /// the structured-log vocabulary ({"counters":{},"gauges":{},
    /// "histograms":{}}).
    [[nodiscard]] std::string json() const;

private:
    detail::SeriesSlots<Counter> counters_;
    detail::SeriesSlots<Gauge> gauges_;
    detail::SeriesSlots<Histogram> histograms_;
    std::map<std::string, std::string, std::less<>> help_;
};

}  // namespace cres::obs
