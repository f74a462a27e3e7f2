// Cycle-accurate metrics registry: counters, gauges and log2-bucket
// histograms, all timestamped in simulated cycles — never wall clock —
// so every value is bit-identical at any worker_threads setting.
//
// Hot-path contract: registration (counter()/gauge()/histogram()) is
// the cold path and may allocate; the returned references are stable
// for the registry's lifetime and incrementing/recording through them
// never allocates. Components hold the references, not names.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

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
/// [2^(i-1), 2^i - 1], so the inclusive upper bound is 2^i - 1.
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

    void record(std::uint64_t v) noexcept {
        ++buckets_[bucket_index(v)];
        sum_ += v;
        if (v < min_) min_ = v;
        if (v > max_) max_ = v;
    }

    /// Records `n` identical samples in O(1) — the quiescence-skip bulk
    /// path (docs/SCHEDULER.md). Equivalent to n record(v) calls.
    void record_many(std::uint64_t v, std::uint64_t n) noexcept {
        if (n == 0) return;
        buckets_[bucket_index(v)] += n;
        sum_ += v * n;
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
        return i < kBucketCount ? buckets_[i] : 0;
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
    std::array<std::uint64_t, kBucketCount> buckets_{};
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

/// Named metric store with deterministic (name-ordered) export and
/// merge. Metric names follow Prometheus conventions and may carry a
/// label set inline: `cres_monitor_polls_total{monitor="bus-monitor"}`.
/// Registration is get-or-create: components binding the same name
/// share one series.
class MetricsRegistry {
public:
    Counter& counter(const std::string& name) { return counters_[name]; }
    Gauge& gauge(const std::string& name) { return gauges_[name]; }
    Histogram& histogram(const std::string& name) {
        return histograms_[name];
    }

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

    /// Index-ordered deterministic reduction: counters and histogram
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
    std::map<std::string, Counter> counters_;
    std::map<std::string, Gauge> gauges_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, std::string, std::less<>> help_;
};

}  // namespace cres::obs
