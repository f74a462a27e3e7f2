#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <mutex>
#include <optional>
#include <utility>

#include "obs/json.h"

namespace cres::obs {

namespace {

enum class SeriesKind : std::size_t { kCounter, kGauge, kHistogram };

/// The process-wide (kind, name) -> dense id table every registry
/// indexes its values by. Entries are never erased, so a name, once
/// read under the lock, stays valid for the life of the process.
class SeriesTable {
public:
    /// Get-or-create the id of `name`.
    std::size_t id(SeriesKind kind, std::string_view name) {
        const std::lock_guard<std::mutex> lock(mu_);
        Kind& k = kinds_[static_cast<std::size_t>(kind)];
        auto it = k.ids.find(name);
        if (it == k.ids.end()) {
            it = k.ids.emplace(std::string(name), k.names.size()).first;
            k.names.push_back(&it->first);
        }
        return it->second;
    }

    /// The id of `name`; nullopt when no registry ever registered it.
    std::optional<std::size_t> find(SeriesKind kind,
                                    std::string_view name) const {
        const std::lock_guard<std::mutex> lock(mu_);
        const Kind& k = kinds_[static_cast<std::size_t>(kind)];
        const auto it = k.ids.find(name);
        if (it == k.ids.end()) return std::nullopt;
        return it->second;
    }

    /// The present values of `slots` paired with their names, in name
    /// order.
    template <typename T>
    std::vector<std::pair<std::string_view, const T*>> sorted(
        SeriesKind kind, const detail::SeriesSlots<T>& slots) const {
        std::vector<std::pair<std::string_view, const T*>> out;
        out.reserve(slots.size());
        {
            const std::lock_guard<std::mutex> lock(mu_);
            const Kind& k = kinds_[static_cast<std::size_t>(kind)];
            slots.for_each([&](std::size_t id, const T& value) {
                out.emplace_back(*k.names[id], &value);
            });
        }
        std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
            return a.first < b.first;
        });
        return out;
    }

private:
    struct Kind {
        std::map<std::string, std::size_t, std::less<>> ids;
        std::vector<const std::string*> names;  ///< Index == id.
    };

    mutable std::mutex mu_;
    std::array<Kind, 3> kinds_;
};

SeriesTable& series_table() {
    static SeriesTable table;
    return table;
}

template <typename T>
const T* find_series(SeriesKind kind, const detail::SeriesSlots<T>& slots,
                     const std::string& name) {
    const auto id = series_table().find(kind, name);
    return id ? slots.find(*id) : nullptr;
}

/// Splits `cres_x_total{monitor="bus"}` into base name and label body
/// (without braces). Names without labels return an empty label body.
std::pair<std::string_view, std::string_view> split_labels(
    std::string_view name) {
    const std::size_t brace = name.find('{');
    if (brace == std::string_view::npos) return {name, {}};
    std::string_view labels = name.substr(brace + 1);
    if (!labels.empty() && labels.back() == '}') {
        labels.remove_suffix(1);
    }
    return {name.substr(0, brace), labels};
}

/// Emits the `# HELP` (when registered) and `# TYPE` lines once per
/// base name (input is name-sorted, so equal bases are adjacent).
void type_line(std::string& out, std::string& last_base,
               std::string_view base, std::string_view type,
               const std::map<std::string, std::string, std::less<>>& help) {
    if (last_base == base) return;
    last_base.assign(base);
    if (const auto it = help.find(base); it != help.end()) {
        out += "# HELP ";
        out += base;
        out += ' ';
        out += it->second;
        out += '\n';
    }
    out += "# TYPE ";
    out += base;
    out += ' ';
    out += type;
    out += '\n';
}

/// Composes `base{labels,extra}` / `base{extra}` / `base` as needed.
std::string with_labels(std::string_view base, std::string_view labels,
                        std::string_view extra = {}) {
    std::string out(base);
    if (labels.empty() && extra.empty()) return out;
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
    return out;
}

}  // namespace

std::size_t Histogram::highest_bucket() const noexcept {
    for (std::size_t i = buckets_.size(); i-- > 0;) {
        if (buckets_[i] != 0) return i;
    }
    return 0;
}

std::uint64_t Histogram::estimate_quantile(double q) const noexcept {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;

    // Prometheus histogram_quantile: find the bucket covering rank
    // q * n, then interpolate linearly between the bucket's boundary
    // values by the rank's position inside the bucket population.
    const double rank = q * static_cast<double>(n);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
        const std::uint64_t c = buckets_[i];
        if (c == 0) continue;
        if (static_cast<double>(cum + c) >= rank) {
            const std::uint64_t lower = i == 0 ? 0 : bucket_upper(i - 1);
            std::uint64_t upper = bucket_upper(i);
            if (upper > max_) upper = max_;  // Tighten the top bucket.
            const double frac =
                (rank - static_cast<double>(cum)) / static_cast<double>(c);
            double v = static_cast<double>(lower) +
                       frac * static_cast<double>(upper - lower);
            if (v < 0.0) v = 0.0;
            auto estimate = static_cast<std::uint64_t>(v);
            if (estimate < min()) estimate = min();
            if (estimate > max_) estimate = max_;
            return estimate;
        }
        cum += c;
    }
    return max_;
}

Counter& MetricsRegistry::counter(const std::string& name) {
    return counters_.get_or_add(series_table().id(SeriesKind::kCounter, name));
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
    return gauges_.get_or_add(series_table().id(SeriesKind::kGauge, name));
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
    return histograms_.get_or_add(
        series_table().id(SeriesKind::kHistogram, name));
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
    return find_series(SeriesKind::kCounter, counters_, name);
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
    return find_series(SeriesKind::kGauge, gauges_, name);
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
    return find_series(SeriesKind::kHistogram, histograms_, name);
}

const std::string* MetricsRegistry::find_help(std::string_view base) const {
    const auto it = help_.find(base);
    return it == help_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
    other.counters_.for_each([&](std::size_t id, const Counter& c) {
        counters_.get_or_add(id).value_ += c.value_;
    });
    other.gauges_.for_each([&](std::size_t id, const Gauge& g) {
        Gauge& mine = gauges_.get_or_add(id);
        mine.value_ += g.value_;
        mine.max_ = std::max(mine.max_, g.max_);
    });
    other.histograms_.for_each([&](std::size_t id, const Histogram& h) {
        Histogram& mine = histograms_.get_or_add(id);
        if (!h.buckets_.empty()) {
            if (mine.buckets_.empty()) {
                mine.buckets_.resize(Histogram::kBucketCount);
            }
            for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
                mine.buckets_[i] += h.buckets_[i];
            }
        }
        mine.sum_ += h.sum_;
        mine.min_ = std::min(mine.min_, h.min_);
        mine.max_ = std::max(mine.max_, h.max_);
    });
    for (const auto& [base, text] : other.help_) {
        help_.emplace(base, text);
    }
}

std::string MetricsRegistry::prometheus() const {
    std::string out;
    std::string last_base;

    const SeriesTable& table = series_table();
    for (const auto& [name, c] :
         table.sorted(SeriesKind::kCounter, counters_)) {
        const auto [base, labels] = split_labels(name);
        type_line(out, last_base, base, "counter", help_);
        out += with_labels(base, labels);
        out += ' ';
        out += std::to_string(c->value());
        out += '\n';
    }
    for (const auto& [name, g] : table.sorted(SeriesKind::kGauge, gauges_)) {
        const auto [base, labels] = split_labels(name);
        type_line(out, last_base, base, "gauge", help_);
        out += with_labels(base, labels);
        out += ' ';
        out += std::to_string(g->value());
        out += '\n';
        // The high-water mark rides along as a sibling gauge.
        std::string max_base(base);
        max_base += "_max";
        out += with_labels(max_base, labels);
        out += ' ';
        out += std::to_string(g->max());
        out += '\n';
    }
    for (const auto& [name, histogram] :
         table.sorted(SeriesKind::kHistogram, histograms_)) {
        const Histogram& h = *histogram;
        const auto [base, labels] = split_labels(name);
        type_line(out, last_base, base, "histogram", help_);
        std::string bucket_base(base);
        bucket_base += "_bucket";
        const std::size_t top = h.highest_bucket();
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i <= top && h.count() != 0; ++i) {
            cumulative += h.bucket(i);
            out += with_labels(
                bucket_base, labels,
                "le=\"" + std::to_string(Histogram::bucket_upper(i)) + "\"");
            out += ' ';
            out += std::to_string(cumulative);
            out += '\n';
        }
        out += with_labels(bucket_base, labels, "le=\"+Inf\"");
        out += ' ';
        out += std::to_string(h.count());
        out += '\n';
        out += with_labels(std::string(base) + "_sum", labels);
        out += ' ';
        out += std::to_string(h.sum());
        out += '\n';
        out += with_labels(std::string(base) + "_count", labels);
        out += ' ';
        out += std::to_string(h.count());
        out += '\n';
    }
    return out;
}

std::string MetricsRegistry::json() const {
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    const SeriesTable& table = series_table();
    for (const auto& [name, c] :
         table.sorted(SeriesKind::kCounter, counters_)) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + json_quote(name) + ": " + std::to_string(c->value());
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : table.sorted(SeriesKind::kGauge, gauges_)) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + json_quote(name) + ": {\"value\": " +
               std::to_string(g->value()) +
               ", \"max\": " + std::to_string(g->max()) + "}";
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto& [name, histogram] :
         table.sorted(SeriesKind::kHistogram, histograms_)) {
        const Histogram& h = *histogram;
        out += first ? "\n" : ",\n";
        first = false;
        out += "    " + json_quote(name) + ": {\"count\": " +
               std::to_string(h.count()) +
               ", \"sum\": " + std::to_string(h.sum()) +
               ", \"min\": " + std::to_string(h.min()) +
               ", \"max\": " + std::to_string(h.max()) + ", \"buckets\": [";
        const std::size_t top = h.highest_bucket();
        for (std::size_t i = 0; i <= top && h.count() != 0; ++i) {
            if (i > 0) out += ", ";
            out += std::to_string(h.bucket(i));
        }
        out += "]}";
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

}  // namespace cres::obs
