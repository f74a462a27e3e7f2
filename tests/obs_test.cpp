// Observability subsystem: log2-bucket histogram KATs, span lifecycle,
// exposition formats (Prometheus golden file + JSON), deterministic
// merge, the structured log sink, the flight-recorder ring, sealed
// postmortem bundles, the Chrome trace exporter (golden file), the
// end-to-end check that one attack scenario populates the CSF latency
// histograms and seals a verifiable postmortem, and the merged scrape
// of a campaign estate (golden file).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <fstream>

#include "attack/attacks.h"
#include "attack/campaigns.h"
#include "core/monitor/monitor.h"
#include "crypto/hmac.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/span.h"
#include "platform/fleet.h"
#include "platform/scenario.h"

namespace cres::obs {
namespace {

// --- Histogram bucket boundaries (known-answer tests) -----------------------

TEST(Histogram, BucketIndexKats) {
    EXPECT_EQ(Histogram::bucket_index(0), 0u);
    EXPECT_EQ(Histogram::bucket_index(1), 1u);
    EXPECT_EQ(Histogram::bucket_index(2), 2u);
    EXPECT_EQ(Histogram::bucket_index(3), 2u);
    EXPECT_EQ(Histogram::bucket_index(4), 3u);
    EXPECT_EQ(Histogram::bucket_index(7), 3u);
    EXPECT_EQ(Histogram::bucket_index(8), 4u);
    EXPECT_EQ(Histogram::bucket_index(1023), 10u);
    EXPECT_EQ(Histogram::bucket_index(1024), 11u);
    EXPECT_EQ(Histogram::bucket_index(std::uint64_t{1} << 63), 64u);
    EXPECT_EQ(Histogram::bucket_index(~std::uint64_t{0}), 64u);
}

TEST(Histogram, BucketUpperKats) {
    EXPECT_EQ(Histogram::bucket_upper(0), 0u);
    EXPECT_EQ(Histogram::bucket_upper(1), 1u);
    EXPECT_EQ(Histogram::bucket_upper(2), 3u);
    EXPECT_EQ(Histogram::bucket_upper(3), 7u);
    EXPECT_EQ(Histogram::bucket_upper(10), 1023u);
    EXPECT_EQ(Histogram::bucket_upper(63),
              (std::uint64_t{1} << 63) - 1);
    EXPECT_EQ(Histogram::bucket_upper(64), ~std::uint64_t{0});
}

TEST(Histogram, EveryValueLandsInsideItsBucketBounds) {
    for (std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{2}, std::uint64_t{100},
                            std::uint64_t{65535}, std::uint64_t{65536},
                            ~std::uint64_t{0}}) {
        const std::size_t i = Histogram::bucket_index(v);
        EXPECT_LE(v, Histogram::bucket_upper(i)) << v;
        if (i > 0) {
            EXPECT_GT(v, Histogram::bucket_upper(i - 1)) << v;
        }
    }
}

TEST(Histogram, RecordTracksCountSumMinMax) {
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);  // Empty histogram reports 0, not UINT64_MAX.
    h.record(5);
    h.record(0);
    h.record(1000);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 1005u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.bucket(10), 1u);
    EXPECT_EQ(h.highest_bucket(), 10u);
}

// --- Quantile estimation (known-answer tests) -------------------------------
// Prometheus-style: locate the bucket covering rank q*n, interpolate
// linearly inside it, clamp to the observed [min, max].

TEST(Histogram, QuantileEmptyAndSingleSampleKats) {
    Histogram h;
    EXPECT_EQ(h.estimate_quantile(0.5), 0u);  // Empty histogram.
    h.record(100);
    // One sample: every quantile is that sample (the min/max clamp
    // overrides in-bucket interpolation).
    EXPECT_EQ(h.p50(), 100u);
    EXPECT_EQ(h.p95(), 100u);
    EXPECT_EQ(h.p99(), 100u);
}

TEST(Histogram, QuantileBucketBoundaryKats) {
    // 50 samples at 1 and 50 at 1024: p50 lands exactly on the upper
    // boundary of the le=1 bucket; the tail quantiles land in the
    // (1023, 2047] bucket, whose upper bound tightens to max()=1024.
    Histogram h;
    for (int i = 0; i < 50; ++i) h.record(1);
    for (int i = 0; i < 50; ++i) h.record(1024);
    EXPECT_EQ(h.p50(), 1u);
    EXPECT_EQ(h.p95(), 1023u);
    EXPECT_EQ(h.p99(), 1023u);
    EXPECT_EQ(h.estimate_quantile(0.0), 1u);     // Clamped to min().
    EXPECT_EQ(h.estimate_quantile(1.0), 1024u);  // Clamped to max().
}

TEST(Histogram, QuantileInterpolatesWithinOneBucket) {
    // All mass in (511, 1023]: interpolation sweeps the bucket span
    // monotonically with q.
    Histogram h;
    for (int i = 0; i < 100; ++i) h.record(512);
    for (int i = 0; i < 100; ++i) h.record(1000);
    const std::uint64_t p50 = h.p50();
    const std::uint64_t p95 = h.p95();
    EXPECT_GE(p50, 512u);
    EXPECT_LE(p95, 1000u);
    EXPECT_LE(p50, p95);
}

// --- Counter / gauge / registry --------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsStableReferences) {
    MetricsRegistry r;
    Counter& a = r.counter("a_total");
    a.inc(2);
    // Registering more metrics must not invalidate the reference.
    for (int i = 0; i < 100; ++i) {
        r.counter("filler_" + std::to_string(i) + "_total");
    }
    Counter& again = r.counter("a_total");
    EXPECT_EQ(&a, &again);
    EXPECT_EQ(a.value(), 2u);
}

TEST(MetricsRegistry, GaugeRemembersHighWaterMark) {
    MetricsRegistry r;
    Gauge& g = r.gauge("depth");
    g.set(7);
    g.set(3);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.max(), 7);
    g.add(-3);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(g.max(), 7);
}

TEST(MetricsRegistry, FindReturnsNullForUnregistered) {
    MetricsRegistry r;
    EXPECT_EQ(r.find_counter("nope"), nullptr);
    EXPECT_EQ(r.find_gauge("nope"), nullptr);
    EXPECT_EQ(r.find_histogram("nope"), nullptr);
    r.counter("yes_total").inc();
    ASSERT_NE(r.find_counter("yes_total"), nullptr);
    EXPECT_EQ(r.find_counter("yes_total")->value(), 1u);
}

TEST(MetricsRegistry, MergeSumsCountersAndBucketsTakesGaugeMax) {
    MetricsRegistry a;
    MetricsRegistry b;
    a.counter("c_total").inc(3);
    b.counter("c_total").inc(4);
    b.counter("only_b_total").inc(1);
    a.gauge("g").set(2);
    b.gauge("g").set(9);
    a.histogram("h").record(1);
    b.histogram("h").record(1000);

    a.merge_from(b);
    EXPECT_EQ(a.find_counter("c_total")->value(), 7u);
    EXPECT_EQ(a.find_counter("only_b_total")->value(), 1u);
    EXPECT_EQ(a.find_gauge("g")->value(), 11);  // Values sum (fleet load)...
    EXPECT_EQ(a.find_gauge("g")->max(), 9);     // ...high-water takes max.
    EXPECT_EQ(a.find_histogram("h")->count(), 2u);
    EXPECT_EQ(a.find_histogram("h")->sum(), 1001u);
    EXPECT_EQ(a.find_histogram("h")->min(), 1u);
    EXPECT_EQ(a.find_histogram("h")->max(), 1000u);
}

TEST(MetricsRegistry, MergeIsDeterministicForAGivenFoldOrder) {
    auto make = [](std::uint64_t salt) {
        MetricsRegistry r;
        r.counter("events_total").inc(salt);
        r.histogram("lat_cycles").record(salt * 17);
        r.gauge("depth").set(static_cast<std::int64_t>(salt));
        return r;
    };
    auto fold = [&make] {
        MetricsRegistry merged;
        for (std::uint64_t i = 0; i < 8; ++i) merged.merge_from(make(i));
        return merged.prometheus();
    };
    EXPECT_EQ(fold(), fold());
}

// Ids come from one process-wide series table; a registry's exports,
// size() and lookups must still cover only what it registered itself.
TEST(MetricsRegistry, ExportsShowOnlySeriesThisRegistryRegistered) {
    MetricsRegistry a;
    MetricsRegistry b;
    a.counter("x_total").inc(2);
    b.counter("y_total").inc(3);
    EXPECT_EQ(a.size(), 1u);
    EXPECT_EQ(a.prometheus(), "# TYPE x_total counter\nx_total 2\n");
    EXPECT_EQ(a.json(),
              "{\n  \"counters\": {\n    \"x_total\": 2\n  },\n"
              "  \"gauges\": {},\n  \"histograms\": {}\n}\n");
    EXPECT_EQ(a.find_counter("y_total"), nullptr);
}

TEST(MetricsRegistry, MergeMatchesByNameWhateverTheRegistrationOrder) {
    // Registered here in reverse name order, so series ids and names
    // sort differently; the second registry binds them the other way.
    MetricsRegistry forward;
    forward.counter("merge_order_c_total").inc(1);
    forward.counter("merge_order_b_total").inc(2);
    forward.counter("merge_order_a_total").inc(3);
    forward.gauge("merge_order_z_depth").set(4);
    forward.gauge("merge_order_y_depth").set(5);
    forward.histogram("merge_order_lat_cycles").record(2);
    MetricsRegistry backward;
    backward.histogram("merge_order_lat_cycles").record(6);
    backward.gauge("merge_order_y_depth").set(50);
    backward.gauge("merge_order_z_depth").set(40);
    backward.counter("merge_order_a_total").inc(30);
    backward.counter("merge_order_b_total").inc(20);
    backward.counter("merge_order_c_total").inc(10);

    const std::string by_name =
        "# TYPE merge_order_a_total counter\nmerge_order_a_total 33\n"
        "# TYPE merge_order_b_total counter\nmerge_order_b_total 22\n"
        "# TYPE merge_order_c_total counter\nmerge_order_c_total 11\n"
        "# TYPE merge_order_y_depth gauge\nmerge_order_y_depth 55\n"
        "merge_order_y_depth_max 50\n"
        "# TYPE merge_order_z_depth gauge\nmerge_order_z_depth 44\n"
        "merge_order_z_depth_max 40\n"
        "# TYPE merge_order_lat_cycles histogram\n"
        "merge_order_lat_cycles_bucket{le=\"0\"} 0\n"
        "merge_order_lat_cycles_bucket{le=\"1\"} 0\n"
        "merge_order_lat_cycles_bucket{le=\"3\"} 1\n"
        "merge_order_lat_cycles_bucket{le=\"7\"} 2\n"
        "merge_order_lat_cycles_bucket{le=\"+Inf\"} 2\n"
        "merge_order_lat_cycles_sum 8\n"
        "merge_order_lat_cycles_count 2\n";
    MetricsRegistry one;
    one.merge_from(forward);
    one.merge_from(backward);
    EXPECT_EQ(one.prometheus(), by_name);
    MetricsRegistry other;
    other.merge_from(backward);
    other.merge_from(forward);
    EXPECT_EQ(other.prometheus(), by_name);
    EXPECT_EQ(other.json(), one.json());
}

TEST(MetricsRegistry, CopyDeepCopiesHistogramBuckets) {
    MetricsRegistry original;
    Histogram& h = original.histogram("copy_latency_cycles");
    h.record(5);
    const MetricsRegistry copy = original;
    MetricsRegistry assigned;
    assigned.counter("copy_other_total").inc();
    assigned = original;

    h.record(5);
    h.record(1000);
    for (const MetricsRegistry* r :
         std::initializer_list<const MetricsRegistry*>{&copy, &assigned}) {
        const Histogram* snapshot = r->find_histogram("copy_latency_cycles");
        ASSERT_NE(snapshot, nullptr);
        EXPECT_NE(snapshot, &h);
        EXPECT_EQ(snapshot->count(), 1u);
        EXPECT_EQ(snapshot->bucket(Histogram::bucket_index(5)), 1u);
        EXPECT_EQ(snapshot->max(), 5u);
    }
    EXPECT_EQ(assigned.find_counter("copy_other_total"), nullptr);
    EXPECT_EQ(h.count(), 3u);
}

// --- Exposition formats -----------------------------------------------------

MetricsRegistry golden_registry() {
    MetricsRegistry r;
    r.set_help("cres_demo_events_total", "Demo events observed");
    r.set_help("cres_monitor_polls_total",
               "Monitor poll invocations by monitor");
    r.counter("cres_demo_events_total").inc(3);
    r.counter("cres_monitor_polls_total{monitor=\"bus-monitor\"}").inc(7);
    r.counter("cres_monitor_polls_total{monitor=\"cfi-monitor\"}").inc(9);
    Gauge& g = r.gauge("cres_demo_queue_depth");
    g.set(4);
    g.set(2);
    Histogram& h = r.histogram("cres_demo_latency_cycles");
    h.record(0);
    h.record(1);
    h.record(5);
    h.record(1000);
    return r;
}

TEST(Exposition, PrometheusMatchesGoldenFile) {
    const std::string path =
        std::string(CRES_OBS_GOLDEN_DIR) + "/obs_exposition.golden";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden_registry().prometheus(), golden.str());
}

TEST(Exposition, TypeLinesAreDedupedAcrossLabelSets) {
    const std::string text = golden_registry().prometheus();
    std::size_t type_lines = 0;
    std::size_t pos = 0;
    while ((pos = text.find("# TYPE cres_monitor_polls_total", pos)) !=
           std::string::npos) {
        ++type_lines;
        ++pos;
    }
    EXPECT_EQ(type_lines, 1u);  // One TYPE line despite two label sets.
}

TEST(Exposition, HelpLinesEmitOncePerBaseAndOnlyWhenRegistered) {
    const std::string text = golden_registry().prometheus();
    // Registered help precedes the TYPE line; one line per base even
    // with two label sets; unregistered series get no HELP at all.
    EXPECT_NE(text.find("# HELP cres_demo_events_total Demo events "
                        "observed\n# TYPE cres_demo_events_total counter"),
              std::string::npos);
    std::size_t help_lines = 0;
    std::size_t pos = 0;
    while ((pos = text.find("# HELP cres_monitor_polls_total", pos)) !=
           std::string::npos) {
        ++help_lines;
        ++pos;
    }
    EXPECT_EQ(help_lines, 1u);
    EXPECT_EQ(text.find("# HELP cres_demo_queue_depth"), std::string::npos);
}

TEST(Exposition, MergeUnionsHelpFirstRegistrationWins) {
    MetricsRegistry a;
    MetricsRegistry b;
    a.counter("x_total").inc();
    b.counter("x_total").inc();
    b.counter("y_total").inc();
    a.set_help("x_total", "from a");
    b.set_help("x_total", "from b");
    b.set_help("y_total", "only b knows");
    a.merge_from(b);
    ASSERT_NE(a.find_help("x_total"), nullptr);
    EXPECT_EQ(*a.find_help("x_total"), "from a");  // First wins.
    ASSERT_NE(a.find_help("y_total"), nullptr);
    EXPECT_EQ(*a.find_help("y_total"), "only b knows");
    EXPECT_EQ(a.find_help("z_total"), nullptr);
}

TEST(Exposition, EmptyHistogramEmitsOnlyInfBucket) {
    MetricsRegistry r;
    r.histogram("empty_cycles");
    const std::string text = r.prometheus();
    EXPECT_NE(text.find("empty_cycles_bucket{le=\"+Inf\"} 0"),
              std::string::npos);
    EXPECT_EQ(text.find("le=\"0\""), std::string::npos);
}

TEST(Exposition, JsonSnapshotHasAllThreeSections) {
    const std::string json = golden_registry().json();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"cres_demo_events_total\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"value\": 2, \"max\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 4, \"sum\": 1006"), std::string::npos);
    // Inline label quotes must be escaped into valid JSON keys.
    EXPECT_NE(json.find("{monitor=\\\"bus-monitor\\\"}"), std::string::npos);
}

// --- CSF span tracing -------------------------------------------------------

TEST(SpanTracer, FullLifecyclePopulatesEveryPhaseHistogram) {
    MetricsRegistry r;
    SpanTracer spans(r);
    const std::uint64_t id = spans.open(100);
    EXPECT_TRUE(spans.is_open(id));
    EXPECT_TRUE(spans.mark(id, CsfPhase::kDetect, 110));
    EXPECT_TRUE(spans.mark(id, CsfPhase::kRespond, 130));
    EXPECT_TRUE(spans.mark(id, CsfPhase::kContain, 150));
    EXPECT_TRUE(spans.close(id, 200));
    EXPECT_FALSE(spans.is_open(id));
    EXPECT_EQ(spans.open_spans(), 0u);
    EXPECT_EQ(spans.incidents_total(), 1u);

    EXPECT_EQ(r.find_histogram("cres_csf_detect_latency_cycles")->sum(), 10u);
    EXPECT_EQ(r.find_histogram("cres_csf_respond_latency_cycles")->sum(),
              30u);
    EXPECT_EQ(r.find_histogram("cres_csf_contain_latency_cycles")->sum(),
              50u);
    EXPECT_EQ(r.find_histogram("cres_csf_recover_latency_cycles")->sum(),
              100u);
    EXPECT_EQ(r.find_histogram("cres_csf_total_cycles")->sum(), 100u);
    EXPECT_EQ(r.find_counter("cres_csf_incidents_total")->value(), 1u);
    EXPECT_EQ(r.find_gauge("cres_csf_incidents_open")->value(), 0);
    EXPECT_EQ(r.find_gauge("cres_csf_incidents_open")->max(), 1);
}

TEST(SpanTracer, MarksAreIdempotentPerPhase) {
    MetricsRegistry r;
    SpanTracer spans(r);
    const std::uint64_t id = spans.open(0);
    EXPECT_TRUE(spans.mark(id, CsfPhase::kDetect, 10));
    EXPECT_FALSE(spans.mark(id, CsfPhase::kDetect, 999));  // First wins.
    EXPECT_EQ(r.find_histogram("cres_csf_detect_latency_cycles")->count(),
              1u);
    EXPECT_EQ(r.find_histogram("cres_csf_detect_latency_cycles")->sum(), 10u);
}

TEST(SpanTracer, UnknownAndClosedIdsAreRejected) {
    MetricsRegistry r;
    SpanTracer spans(r);
    EXPECT_FALSE(spans.mark(42, CsfPhase::kDetect, 1));
    EXPECT_FALSE(spans.close(42, 1));
    const std::uint64_t id = spans.open(0);
    EXPECT_TRUE(spans.close(id, 5));
    EXPECT_FALSE(spans.close(id, 9));  // Already retired.
    EXPECT_FALSE(spans.mark(id, CsfPhase::kContain, 9));
}

TEST(SpanTracer, OrphansStayOpenAndQueryable) {
    MetricsRegistry r;
    SpanTracer spans(r);
    const std::uint64_t a = spans.open(0);
    const std::uint64_t b = spans.open(10);
    (void)spans.close(b, 20);
    EXPECT_EQ(spans.open_spans(), 1u);  // `a` never recovered.
    EXPECT_TRUE(spans.is_open(a));
    EXPECT_EQ(r.find_gauge("cres_csf_incidents_open")->value(), 1);
    // The orphan is the "never recovered" signal: total_cycles saw only
    // the closed incident.
    EXPECT_EQ(r.find_histogram("cres_csf_total_cycles")->count(), 1u);
}

TEST(SpanTracer, CloseRecordsRecoverEvenWithoutExplicitMark) {
    MetricsRegistry r;
    SpanTracer spans(r);
    const std::uint64_t id = spans.open(100);
    EXPECT_TRUE(spans.close(id, 400));
    EXPECT_EQ(r.find_histogram("cres_csf_recover_latency_cycles")->sum(),
              300u);
}

// --- Flight recorder ---------------------------------------------------------

// Every capacity / record-count pair against a reference model: a
// deque that drops its front once it holds `capacity` records. The
// ring grows on demand, so the counts below and across each doubling
// step pin it record for record to a preallocated ring; one case
// clear()s part-way through the growth.
TEST(FlightRecorder, RingWraparoundEvictsExactlyTheOldest) {
    constexpr std::size_t kNoClear = ~std::size_t{0};
    struct Case {
        std::size_t capacity;
        std::size_t records;
        std::size_t clear_after;
    };
    std::vector<Case> cases;
    for (const std::size_t cap : {1u, 3u, 64u, 2048u}) {
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, cap - 1, cap, cap + 1,
              3 * cap + 2}) {
            cases.push_back({cap, n, kNoClear});
        }
    }
    cases.push_back({2048, 3 * 2048 + 2, 100});

    for (const Case& c : cases) {
        SCOPED_TRACE("capacity " + std::to_string(c.capacity) + ", " +
                     std::to_string(c.records) + " records");
        FlightRecorder rec(c.capacity);
        const std::uint16_t src = rec.intern("mon");
        const std::uint16_t kind = rec.intern("evt");
        struct Expected {
            std::uint64_t seq;
            std::uint64_t at;
        };
        std::deque<Expected> model;
        std::size_t held = 0;  // Records since the last clear().
        std::size_t peak = 0;
        for (std::uint64_t i = 0; i < c.records; ++i) {
            if (i == c.clear_after) {
                rec.clear();
                model.clear();
                held = 0;
            }
            peak = std::max(peak, ++held);
            const std::uint64_t at = 100 + 3 * i;
            rec.record(at, src, kind, 0, FlightRecordType::kInstant, i, 0,
                       "d" + std::to_string(i));
            model.push_back({i, at});
            if (model.size() > c.capacity) model.pop_front();
        }

        EXPECT_EQ(rec.capacity(), c.capacity);
        // Memory follows the records held, never past the capacity.
        EXPECT_EQ(rec.allocated(),
                  peak == 0 ? 0 : std::min(c.capacity, std::bit_ceil(peak)));
        EXPECT_EQ(rec.size(), model.size());
        EXPECT_EQ(rec.total_emitted(), c.records);
        EXPECT_EQ(rec.evicted(), c.records - model.size());

        // Exactly the oldest records are gone; survivors keep emission
        // order, cycles and payloads.
        std::vector<std::uint64_t> seen;
        rec.for_each([&](const FlightRecord& r) {
            seen.push_back(r.a);
            EXPECT_EQ(r.at, 100 + 3 * r.a);
            EXPECT_EQ(r.detail_view(), "d" + std::to_string(r.a));
        });
        std::vector<std::uint64_t> expected;
        for (const Expected& e : model) expected.push_back(e.seq);
        EXPECT_EQ(seen, expected);

        const auto seqs = [](const std::vector<FlightRecord>& records) {
            std::vector<std::uint64_t> out;
            for (const FlightRecord& r : records) out.push_back(r.a);
            return out;
        };
        const std::uint64_t middle =
            model.empty() ? 0 : model[model.size() / 2].seq;
        for (const std::uint64_t seq :
             {std::uint64_t{0}, middle, std::uint64_t{c.records}}) {
            std::vector<std::uint64_t> want;
            std::vector<std::uint64_t> want_by_cycle;
            for (const Expected& e : model) {
                if (e.seq >= seq) want.push_back(e.seq);
                if (e.at >= 100 + 3 * seq) want_by_cycle.push_back(e.seq);
            }
            EXPECT_EQ(seqs(rec.snapshot_emitted_since(seq)), want);
            EXPECT_EQ(seqs(rec.snapshot_since(100 + 3 * seq)),
                      want_by_cycle);
        }
    }
}

TEST(FlightRecorder, DetailIsTruncatedNotOverrun) {
    FlightRecorder rec(2);
    const std::string long_detail(100, 'x');
    rec.record(1, 0, 0, 0, FlightRecordType::kInstant, 0, 0, long_detail);
    rec.record(2, 0, 0, 0, FlightRecordType::kInstant, 0, 0, "short");
    std::vector<std::string> details;
    rec.for_each([&](const FlightRecord& r) {
        details.emplace_back(r.detail_view());
    });
    ASSERT_EQ(details.size(), 2u);
    EXPECT_EQ(details[0], std::string(FlightRecord::kDetailCapacity, 'x'));
    EXPECT_EQ(details[1], "short");  // Stale slot bytes zeroed on reuse.
}

TEST(FlightRecorder, ZeroCapacityDisablesRecording) {
    FlightRecorder rec(0);
    rec.record(1, 0, 0, 0, FlightRecordType::kInstant, 0, 0, "x");
    rec.record_slow(2, "a", "b", 0, FlightRecordType::kInstant, 0, 0, "y");
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.total_emitted(), 0u);
    EXPECT_TRUE(rec.empty());
}

TEST(FlightRecorder, InternIsStableAndNamesResolve) {
    FlightRecorder rec(4);
    const std::uint16_t a = rec.intern("alpha");
    const std::uint16_t b = rec.intern("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(rec.intern("alpha"), a);  // Get-or-create.
    EXPECT_EQ(rec.name(a), "alpha");
    EXPECT_EQ(rec.name(b), "beta");
    EXPECT_EQ(rec.name(999), "?");
    ASSERT_EQ(rec.names().size(), 2u);
}

TEST(FlightRecorder, SnapshotsByCycleAndBySequenceWatermark) {
    FlightRecorder rec(8);
    for (std::uint64_t i = 0; i < 6; ++i) {
        rec.record(10 * i, 0, 0, 0, FlightRecordType::kInstant, i, 0, {});
    }
    const auto since30 = rec.snapshot_since(30);
    ASSERT_EQ(since30.size(), 3u);
    EXPECT_EQ(since30.front().at, 30u);

    // Watermark semantics: records emitted after total_emitted() was
    // read — the postmortem dedup between pre-window and close.
    const std::uint64_t mark = rec.total_emitted();
    rec.record(100, 0, 0, 0, FlightRecordType::kInstant, 77, 0, {});
    rec.record(110, 0, 0, 0, FlightRecordType::kInstant, 78, 0, {});
    const auto tail = rec.snapshot_emitted_since(mark);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].a, 77u);
    EXPECT_EQ(tail[1].a, 78u);

    // After wrap, evicted sequence numbers are simply gone.
    for (std::uint64_t i = 0; i < 8; ++i) {
        rec.record(200 + i, 0, 0, 0, FlightRecordType::kInstant, i, 0, {});
    }
    EXPECT_TRUE(rec.snapshot_emitted_since(0).size() == rec.size());
}

// --- Monitor poll-gap anchoring ---------------------------------------------

class ProbeMonitor : public core::Monitor {
public:
    using core::Monitor::Monitor;
    using core::Monitor::note_poll;  // Re-expose for the test driver.
    [[nodiscard]] std::string description() const override {
        return "test probe";
    }
};

class NullSink : public core::EventSink {
public:
    void submit(const core::MonitorEvent&) override {}
};

TEST(Monitor, FirstPollContributesNoGapSample) {
    // Regression pin for the cycle-0 anchor audit: last_poll_at_ starts
    // at a sentinel, not 0, so a monitor whose first pass happens late
    // (here: cycle 1000) must not smear a bogus 0..1000 "gap" into
    // cres_monitor_poll_gap_cycles.
    MetricsRegistry r;
    NullSink sink;
    ProbeMonitor probe("probe", sink);
    probe.bind_metrics(r);

    probe.note_poll(1000);  // First poll, late.
    const auto* gap =
        r.find_histogram("cres_monitor_poll_gap_cycles{monitor=\"probe\"}");
    ASSERT_NE(gap, nullptr);
    EXPECT_EQ(gap->count(), 0u);  // No anchor sample.

    probe.note_poll(1100);  // Real gap: 100 cycles.
    EXPECT_EQ(gap->count(), 1u);
    EXPECT_EQ(gap->sum(), 100u);
    // Bucket-level: the sample sits in the 100-cycle bucket; the bucket
    // a bogus 1000-cycle first-poll gap would have hit stays empty.
    EXPECT_EQ(gap->bucket(Histogram::bucket_index(100)), 1u);
    EXPECT_EQ(gap->bucket(Histogram::bucket_index(1000)), 0u);

    // Polls counter saw both passes (only the gap skips the first).
    const auto* polls =
        r.find_counter("cres_monitor_polls_total{monitor=\"probe\"}");
    ASSERT_NE(polls, nullptr);
    EXPECT_EQ(polls->value(), 2u);
}

// --- Sealed postmortem bundles ----------------------------------------------

PostmortemBundle sample_bundle() {
    PostmortemBundle b;
    b.device = "device-B";
    b.incident_id = 3;
    b.opened_at = 30000;
    b.closed_at = 31000;
    b.window_begin = 25000;
    b.marked = 0b1011;  // detect, respond, recover.
    b.phase_at = {30010, 30020, 0, 31000};
    b.names = {"cfi-monitor", "control-flow", "ssm", "queue_depth"};
    FlightRecord alert;
    alert.at = 30000;
    alert.source = 0;
    alert.kind = 1;
    alert.severity = 3;
    alert.a = 0x24000;
    const std::string_view detail = "return-address mismatch";
    std::memcpy(alert.detail.data(), detail.data(), detail.size());
    b.telemetry.push_back(alert);
    FlightRecord depth;
    depth.at = 30010;
    depth.source = 2;
    depth.kind = 3;
    depth.type = FlightRecordType::kCounter;
    depth.a = 2;
    b.telemetry.push_back(depth);
    b.metrics_json = "{\"counters\": {\"cres_demo_total\": 1}}\n";
    b.evidence_count = 7;
    b.evidence_head_hex = "00ff";
    return b;
}

TEST(Postmortem, SealRoundTripsAndAnySingleByteFlipFails) {
    const Bytes key = to_bytes("postmortem-seal-key");
    const crypto::HmacSha256 sealer(key);
    const std::string sealed = seal_postmortem(sample_bundle(), sealer);

    EXPECT_TRUE(verify_postmortem(sealed, key));
    EXPECT_FALSE(verify_postmortem(sealed, to_bytes("wrong-key")));

    // Tamper-evidence is total: flipping any single byte — body, tag
    // hex, even the framing braces — must fail verification.
    for (std::size_t i = 0; i < sealed.size(); ++i) {
        std::string mutated = sealed;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
        EXPECT_FALSE(verify_postmortem(mutated, key)) << "byte " << i;
    }

    // Malformed inputs are rejected, not crashes.
    EXPECT_FALSE(verify_postmortem("", key));
    EXPECT_FALSE(verify_postmortem("{}", key));
    EXPECT_FALSE(verify_postmortem(sealed.substr(0, sealed.size() / 2), key));
}

TEST(Postmortem, BodyRendersPhasesTelemetryAndEmbeddedMetrics) {
    const std::string body = render_postmortem_body(sample_bundle());
    EXPECT_NE(body.find("\"device\": \"device-B\""), std::string::npos);
    EXPECT_NE(body.find("\"detect\": 30010"), std::string::npos);
    EXPECT_NE(body.find("\"respond\": 30020"), std::string::npos);
    EXPECT_NE(body.find("\"recover\": 31000"), std::string::npos);
    EXPECT_EQ(body.find("\"contain\""), std::string::npos);  // Unmarked.
    EXPECT_NE(body.find("\"source\": \"cfi-monitor\""), std::string::npos);
    EXPECT_NE(body.find("\"type\": \"counter\""), std::string::npos);
    EXPECT_NE(body.find("\"cres_demo_total\": 1"), std::string::npos);
    EXPECT_EQ(body.find('\0'), std::string::npos);  // NUL padding stripped.

    PostmortemBundle empty;
    empty.device = "d";
    const std::string minimal = render_postmortem_body(empty);
    EXPECT_NE(minimal.find("\"telemetry\": []"), std::string::npos);
    EXPECT_NE(minimal.find("\"metrics\": null"), std::string::npos);
}

// --- Chrome trace export -----------------------------------------------------

ChromeTrace golden_chrome_trace() {
    ChromeTrace t;
    const std::uint32_t pid = t.process("device-0");
    const std::uint32_t incidents = t.thread(pid, "incidents");
    t.complete(pid, incidents, "incident #0", "incident", 30000, 1200,
               "stack smash");
    t.instant(pid, incidents, "detect", "csf", 30010);
    const std::uint32_t cfi = t.thread(pid, "cfi-monitor");
    t.instant(pid, cfi, "control-flow", "critical", 30005,
              "return-address \"mismatch\"");
    t.counter(pid, "queue_depth", 30010, 3);
    t.counter(pid, "queue_depth", 30020, 0);
    const std::uint32_t pid2 = t.process("device-1");
    const std::uint32_t bus = t.thread(pid2, "bus-monitor");
    t.instant(pid2, bus, "bus-violation", "alert", 29990);
    return t;
}

TEST(ChromeTraceExport, MatchesGoldenFile) {
    const std::string path =
        std::string(CRES_OBS_GOLDEN_DIR) + "/chrome_trace.golden";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden_chrome_trace().json(), golden.str());
}

ChromeTrace golden_flow_trace() {
    // Two cross-device frames: each flow_start ("s") pairs with exactly
    // one flow_step ("t") through its span id, across process tracks.
    ChromeTrace t;
    const std::uint32_t dev0 = t.process("device-0");
    const std::uint32_t net0 = t.thread(dev0, "net");
    const std::uint32_t dev1 = t.process("device-1");
    const std::uint32_t net1 = t.thread(dev1, "net");
    t.flow_start(dev0, net0, "frame", "m2m-flow", 1000,
                 (std::uint64_t{1} << 32) | 1);
    t.flow_step(dev1, net1, "frame", "m2m-flow", 1400,
                (std::uint64_t{1} << 32) | 1);
    t.flow_start(dev1, net1, "frame", "m2m-flow", 2000,
                 (std::uint64_t{2} << 32) | 7);
    t.flow_step(dev0, net0, "frame", "m2m-flow", 2500,
                (std::uint64_t{2} << 32) | 7);
    return t;
}

TEST(ChromeTraceExport, FlowEventsMatchGoldenFile) {
    const std::string path =
        std::string(CRES_OBS_GOLDEN_DIR) + "/chrome_flow.golden";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden_flow_trace().json(), golden.str());
}

TEST(ChromeTraceExport, EveryFlowStepIdHasAMatchingFlowStart) {
    const std::string json = golden_flow_trace().json();
    // The s/t pairing contract the CI jq check enforces on the real
    // estate artefact, pinned here at unit scope: same count of "s"
    // and "t" phases, and both span ids appear exactly twice.
    const auto count = [&json](const std::string& needle) {
        std::size_t n = 0;
        std::size_t pos = 0;
        while ((pos = json.find(needle, pos)) != std::string::npos) {
            ++n;
            ++pos;
        }
        return n;
    };
    EXPECT_EQ(count("\"ph\":\"s\""), 2u);
    EXPECT_EQ(count("\"ph\":\"t\""), 2u);
    // Hex-string ids: full 64-bit span ids survive double-based JSON
    // consumers (jq, browsers) only as strings.
    EXPECT_EQ(count("\"id\":\"0x100000001\""), 2u);
    EXPECT_EQ(count("\"id\":\"0x200000007\""), 2u);
}

TEST(ChromeTraceExport, TrackIdsAreAssignedInRegistrationOrder) {
    ChromeTrace t;
    const std::uint32_t a = t.process("a");
    const std::uint32_t b = t.process("b");
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(t.process("a"), a);  // Get-or-create.
    EXPECT_EQ(t.thread(a, "x"), 1u);
    EXPECT_EQ(t.thread(b, "y"), 1u);  // Tids are per-process.
    EXPECT_EQ(t.thread(a, "z"), 2u);
    EXPECT_EQ(t.thread(a, "x"), 1u);
    // Two builders fed identically render identical JSON.
    EXPECT_EQ(golden_chrome_trace().json(), golden_chrome_trace().json());
}

// --- End to end: one attack populates the CSF lifecycle ---------------------

TEST(EndToEnd, StackSmashPopulatesCsfLatencyHistograms) {
    platform::ScenarioConfig config;
    config.node.name = "obs-e2e";
    config.node.resilient = true;
    config.warmup = 15000;
    config.horizon = 80000;
    config.seed = 81;
    platform::Scenario scenario(config);
    attack::StackSmashAttack attack;
    (void)scenario.run(&attack, 20000);

    const auto& metrics = scenario.node().metrics;

    // Monitors polled and the SSM processed events.
    const auto* cfi_polls = metrics.find_counter(
        "cres_monitor_polls_total{monitor=\"cfi-monitor\"}");
    ASSERT_NE(cfi_polls, nullptr);
    EXPECT_GT(cfi_polls->value(), 0u);
    const auto* events =
        metrics.find_counter("cres_ssm_events_processed_total");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->value(), 0u);
    EXPECT_EQ(events->value(), scenario.node().ssm->events_processed());

    // Detection latency is bounded by the SSM poll interval.
    const auto* detection =
        metrics.find_histogram("cres_ssm_detection_latency_cycles");
    ASSERT_NE(detection, nullptr);
    EXPECT_GT(detection->count(), 0u);
    EXPECT_LE(detection->max(), config.node.ssm_poll_interval);

    // The breach ran the full CSF lifecycle: detect -> respond ->
    // recover (checkpoint restore), so each latency histogram has at
    // least one incident in it, with sane ordering.
    const auto* detect =
        metrics.find_histogram("cres_csf_detect_latency_cycles");
    const auto* respond =
        metrics.find_histogram("cres_csf_respond_latency_cycles");
    const auto* recover =
        metrics.find_histogram("cres_csf_recover_latency_cycles");
    ASSERT_NE(detect, nullptr);
    ASSERT_NE(respond, nullptr);
    ASSERT_NE(recover, nullptr);
    EXPECT_GT(detect->count(), 0u);
    EXPECT_GT(respond->count(), 0u);
    EXPECT_GT(recover->count(), 0u);
    EXPECT_LE(detect->min(), respond->min());
    EXPECT_LE(respond->min(), recover->max());

    // Response actions were counted per action label.
    const auto* actions =
        metrics.find_counter("cres_response_actions_total");
    ASSERT_NE(actions, nullptr);
    EXPECT_EQ(actions->value(),
              scenario.node().response_manager->total());

    // And the snapshot formats render it all without blowing up.
    EXPECT_NE(metrics.prometheus().find("cres_csf_detect_latency_cycles"),
              std::string::npos);
    EXPECT_NE(metrics.json().find("cres_ssm_events_processed_total"),
              std::string::npos);
}

TEST(EndToEnd, StackSmashSealsAVerifiablePostmortemBundle) {
    platform::ScenarioConfig config;
    config.node.name = "obs-pm";
    config.node.resilient = true;
    config.warmup = 15000;
    config.horizon = 80000;
    config.seed = 81;
    platform::Scenario scenario(config);
    attack::StackSmashAttack attack;
    (void)scenario.run(&attack, 20000);

    auto& node = scenario.node();
    ASSERT_NE(node.ssm, nullptr);
    ASSERT_FALSE(node.ssm->postmortems().empty());
    const PostmortemBundle& bundle = node.ssm->postmortems().front();

    // Shape: identity, window ordering, phase marks, cycle-sorted
    // telemetry, metrics snapshot and evidence anchor all present.
    EXPECT_EQ(bundle.device, "obs-pm");
    EXPECT_LE(bundle.window_begin, bundle.opened_at);
    EXPECT_LE(bundle.opened_at, bundle.closed_at);
    EXPECT_TRUE(bundle.marked &
                (1u << static_cast<std::size_t>(CsfPhase::kDetect)));
    EXPECT_TRUE(bundle.marked &
                (1u << static_cast<std::size_t>(CsfPhase::kRecover)));
    ASSERT_FALSE(bundle.telemetry.empty());
    for (std::size_t i = 1; i < bundle.telemetry.size(); ++i) {
        EXPECT_LE(bundle.telemetry[i - 1].at, bundle.telemetry[i].at) << i;
    }
    EXPECT_FALSE(bundle.names.empty());
    EXPECT_FALSE(bundle.metrics_json.empty());
    EXPECT_GT(bundle.evidence_count, 0u);
    EXPECT_EQ(bundle.evidence_head_hex.size(), 64u);  // Hex SHA-256.

    // Offline verification round trip against the derived seal key.
    const std::string sealed = node.ssm->sealed_postmortem(0);
    EXPECT_TRUE(verify_postmortem(sealed, scenario.seal_key()));
    std::string flipped = sealed;
    flipped[flipped.size() / 3] =
        static_cast<char>(flipped[flipped.size() / 3] ^ 0x80);
    EXPECT_FALSE(verify_postmortem(flipped, scenario.seal_key()));
    EXPECT_THROW((void)node.ssm->sealed_postmortem(9999), Error);

    // The device timeline exports and names this device's track.
    const std::string trace = node.chrome_trace();
    EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
    EXPECT_NE(trace.find("obs-pm"), std::string::npos);
    EXPECT_NE(trace.find("\"incidents\""), std::string::npos);
    // The recorder itself kept rolling past the snapshot.
    EXPECT_GT(node.recorder.total_emitted(), 0u);
}

TEST(EndToEnd, UnboundRegistryStaysEmpty) {
    platform::ScenarioConfig config;
    config.node.name = "obs-off";
    config.node.resilient = true;
    config.node.metrics = false;  // Compiled in, never queried.
    config.warmup = 5000;
    config.horizon = 30000;
    config.seed = 81;
    platform::Scenario scenario(config);
    attack::StackSmashAttack attack;
    (void)scenario.run(&attack, 8000);
    EXPECT_EQ(scenario.node().metrics.size(), 0u);
    EXPECT_EQ(scenario.node().metrics.prometheus(), "");
}

/// The merged scrape (Prometheus text, then the JSON snapshot) of a
/// 16-device estate under all three campaign classes after eight
/// epochs. Two enrolment workers register series concurrently, so the
/// golden also pins that registration order never reaches the output.
std::string campaign_estate_scrape() {
    platform::FleetConfig config;
    config.device_count = 16;
    config.resilient = true;
    config.interrupt_workload = true;
    config.seed = 7;
    config.worker_threads = 2;
    platform::Fleet fleet(config);
    attack::WormCampaign worm;
    attack::CoordinatedReplayCampaign replay;
    attack::StaggeredDowngradeCampaign downgrade;
    worm.launch(fleet);
    replay.launch(fleet);
    downgrade.launch(fleet);
    for (int epoch = 0; epoch < 8; ++epoch) {
        fleet.run(10000);
        (void)fleet.attestation_sweep();
        (void)fleet.collect_health();
        (void)fleet.drain_siem();
    }
    const MetricsRegistry scrape = fleet.collect_metrics();
    return scrape.prometheus() + scrape.json();
}

TEST(EndToEnd, FleetScrapeMatchesGoldenFile) {
    const std::string path =
        std::string(CRES_OBS_GOLDEN_DIR) + "/fleet_scrape.golden";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(campaign_estate_scrape(), golden.str());
}

}  // namespace
}  // namespace cres::obs
