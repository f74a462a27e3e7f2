// Fleet-epoch benchmark driver (perfbench/README.md). One operator runs
// closed-loop epochs over one estate: Fleet::run(slice), then the
// attestation sweep and health collection, and on resilient estates the
// SIEM drain and the metrics scrape. A trial is one enrolment followed
// by a fixed number of epochs (campaign_siem: until every campaign is
// detected and the worm's provenance is complete); trials repeat until
// --seconds of wall time are spent.
//
// The driver only reaches the system through its public calls. With
// --trace 0 it times epochs and nothing else; with --trace 1 it also
// records spans around each public call and counter snapshots at epoch
// boundaries, alternating traced and untraced trials so the tracing
// overhead is measured inside the same run, and writes the spans as a
// Chrome trace at exit.
//
// The last stdout line is one JSON object of raw measurements that
// perfbench/run.py turns into the benchmark's metrics.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/translate.h"
#include "analysis/verifier.h"
#include "attack/campaigns.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "isa/cpu.h"
#include "mem/bus.h"
#include "mem/ram.h"
#include "platform/fleet.h"
#include "platform/memmap.h"
#include "platform/workload.h"
#include "util/rng.h"

namespace {

using namespace cres;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWorkerThreads = 2;

/// Probe results are stored here so the compiler cannot drop the work.
volatile std::uint8_t g_sink = 0;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload {
    std::string name;
    platform::FleetConfig config;
    sim::Cycle epoch_cycles = 0;
    /// Epochs per trial; for campaign estates the cap on epochs spent
    /// waiting for detection.
    std::size_t epochs = 0;
    bool campaigns = false;
};

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload& out) {
    platform::FleetConfig c;
    c.seed = seed;
    c.worker_threads = kWorkerThreads;
    out.name = name;
    if (name == "passive_wfi") {
        c.device_count = 20000;
        c.resilient = false;
        c.metrics = false;
        c.flight_recorder_capacity = 0;
        c.interrupt_workload = true;
        out.epoch_cycles = 4000;
        out.epochs = 10;
    } else if (name == "resilient_busy") {
        c.device_count = 512;
        c.resilient = true;
        c.interrupt_workload = false;
        out.epoch_cycles = 2000;
        out.epochs = 10;
    } else if (name == "campaign_siem") {
        c.device_count = 4000;
        c.resilient = true;
        c.interrupt_workload = true;
        out.epoch_cycles = 2000;
        out.epochs = 40;
        out.campaigns = true;
    } else {
        return false;
    }
    out.config = c;
    return true;
}

isa::Program estate_program(const platform::FleetConfig& c) {
    return c.interrupt_workload
               ? platform::interrupt_control_loop_program(c.workload,
                                                          c.timer_period)
               : platform::control_loop_program(c.workload);
}

// ---------------------------------------------------------------------
// Host memory probes
// ---------------------------------------------------------------------

/// Live heap bytes. glibc serves large blocks by mmap (hblkhd) and
/// moves its mmap threshold as blocks are freed, so a block counts in
/// uordblks in one trial and in hblkhd in the next; the sum does not.
std::size_t live_heap_bytes() {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
}

std::size_t peak_rss_bytes() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return static_cast<std::size_t>(
                       std::strtoull(line.c_str() + 6, nullptr, 10)) *
                   1024;
        }
    }
    return 0;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    long long epoch = -1;
};

/// In-memory span recorder; a no-op while disabled. Written out once,
/// at exit, as a Chrome trace (each span also carries its self time).
class Tracer {
public:
    void set_enabled(bool on) noexcept { enabled_ = on; }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    int open(std::string name, int parent, long long epoch = -1) {
        if (!enabled_) return -1;
        spans_.push_back({std::move(name), now_us(), 0.0, parent, epoch});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int id) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
    }
    /// Durations (µs) of every span called `name`.
    [[nodiscard]] std::vector<double> durations(const std::string& name) const {
        std::vector<double> out;
        for (const Span& s : spans_) {
            if (s.name == name) out.push_back(s.end_us - s.start_us);
        }
        return out;
    }

    /// Smallest share of an epoch's wall time its child spans cover.
    [[nodiscard]] double min_epoch_coverage() const {
        std::vector<double> covered(spans_.size(), 0.0);
        for (const Span& s : spans_) {
            if (s.parent >= 0) {
                covered[static_cast<std::size_t>(s.parent)] +=
                    s.end_us - s.start_us;
            }
        }
        double worst = 1.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            if (s.name != "epoch") continue;
            const double wall = s.end_us - s.start_us;
            if (wall > 0.0) worst = std::min(worst, covered[i] / wall);
        }
        return worst;
    }

    bool write_chrome_trace(const std::string& path) const {
        std::vector<double> child_us(spans_.size(), 0.0);
        for (const Span& s : spans_) {
            if (s.parent >= 0) {
                child_us[static_cast<std::size_t>(s.parent)] +=
                    s.end_us - s.start_us;
            }
        }
        std::ofstream out(path);
        if (!out) return false;
        out << "{\"traceEvents\":[\n";
        char buf[512];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            const double dur = s.end_us - s.start_us;
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                          "\"parent\":%d,\"epoch\":%lld,\"self_us\":%.3f}}%s\n",
                          s.name.c_str(), s.start_us, dur, i, s.parent,
                          s.epoch, dur - child_us[i],
                          i + 1 == spans_.size() ? "" : ",");
            out << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

private:
    [[nodiscard]] double now_us() const {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/// Runs `fn` inside a span (when tracing) and returns its wall seconds.
template <typename Fn>
double timed(Tracer& tracer, const char* name, int parent, long long epoch,
             Fn&& fn) {
    const int id = tracer.open(name, parent, epoch);
    const auto t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    tracer.close(id);
    return s;
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------

struct Checks {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /// Counts `total` checks of one kind, `bad` of which failed.
    void count(const std::string& what, std::uint64_t total,
               std::uint64_t bad) {
        attempted += total;
        failed += bad;
        if (bad > 0 && failures.size() < 16) {
            failures.push_back(what + ": " + std::to_string(bad) + " of " +
                               std::to_string(total) + " failed");
        }
    }
    void expect(const std::string& what, bool ok) {
        count(what, 1, ok ? 0 : 1);
    }
};

/// Architectural digest of the estate in device-index order: clock,
/// cycle and retired-instruction counters, control iterations, sensor
/// samples, actuator state and (resilient nodes) the evidence head.
std::string estate_digest(platform::Fleet& fleet) {
    crypto::Sha256 h;
    Bytes word(8);
    const auto fold = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            word[static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
        }
        h.update(word);
    };
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        platform::Node& node = fleet.device(i);
        fold(node.sim.now());
        fold(node.cpu.csr(isa::kCsrMcycle));
        fold(node.cpu.csr(isa::kCsrMinstret));
        fold(node.stats().control_iterations);
        fold(node.sensor.samples());
        fold(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(dev::to_fixed(node.actuator.current()))));
        fold(node.actuator.command_count());
        if (node.ssm) h.update(node.ssm->evidence().head());
    }
    return to_hex(h.finish());
}

bool campaign_detected(const platform::Fleet& fleet,
                       platform::CampaignKind kind) {
    for (const auto& c : fleet.campaign_monitor().campaigns()) {
        if (c.kind == kind) return true;
    }
    return false;
}

bool all_campaigns_detected(const platform::Fleet& fleet) {
    return campaign_detected(fleet, platform::CampaignKind::kWorm) &&
           campaign_detected(fleet,
                             platform::CampaignKind::kCoordinatedReplay) &&
           campaign_detected(fleet,
                             platform::CampaignKind::kStaggeredDowngrade);
}

/// Largest first-evidence -> detection latency over detected campaigns.
std::uint64_t max_detection_latency(const platform::Fleet& fleet) {
    std::uint64_t worst = 0;
    for (const auto& c : fleet.campaign_monitor().campaigns()) {
        worst = std::max<std::uint64_t>(worst, c.detected_at - c.first_at);
    }
    return worst;
}

/// The reconstructed infection DAG equals the worm's ground truth,
/// edge for edge.
bool provenance_exact(const platform::Fleet& fleet,
                      const attack::WormCampaign& worm) {
    const platform::ProvenanceReport& report =
        fleet.campaign_monitor().provenance();
    if (!report.traced || !report.exact ||
        report.patient_zero !=
            static_cast<std::uint32_t>(worm.patient_zero()) ||
        report.max_hop != worm.max_depth() ||
        report.edges.size() != worm.edges().size()) {
        return false;
    }
    const auto key = [](std::uint32_t parent, std::uint32_t child,
                        std::uint32_t hop) {
        return (std::uint64_t{parent} << 40) | (std::uint64_t{child} << 8) |
               hop;
    };
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> want;
    for (const auto& e : report.edges) {
        got.push_back(key(e.parent, e.child, e.hop));
    }
    for (const auto& e : worm.edges()) {
        want.push_back(key(e.parent, e.child, e.hop));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    return got == want;
}

/// Flips one byte inside the body of the middle record line (negative
/// test of the chain check).
std::string tampered(std::string jsonl) {
    std::size_t lines = 0;
    for (const char ch : jsonl) lines += ch == '\n' ? 1 : 0;
    std::size_t pos = 0;
    for (std::size_t line = 0; line < std::max<std::size_t>(1, lines / 2);
         ++line) {
        pos = jsonl.find('\n', pos) + 1;
    }
    const std::size_t digit = jsonl.find_first_of("0123456789", pos);
    if (digit != std::string::npos) {
        jsonl[digit] = jsonl[digit] == '9' ? '8' : '9';
    }
    return jsonl;
}

// ---------------------------------------------------------------------
// Counters read at epoch boundaries (traced trials only)
// ---------------------------------------------------------------------

struct Counters {
    std::uint64_t node_cycles = 0;
    std::uint64_t skipped = 0;
    std::uint64_t events = 0;
    std::uint64_t instret = 0;
    std::uint64_t translated = 0;
    std::uint64_t elided = 0;
    std::uint64_t bus = 0;
    std::uint64_t ssm_events = 0;
    std::uint64_t monitor_events = 0;
    std::uint64_t evidence = 0;
    std::uint64_t frames_accepted = 0;
    std::uint64_t frames_rejected = 0;

    Counters& operator+=(const Counters& o) {
        node_cycles += o.node_cycles;
        skipped += o.skipped;
        events += o.events;
        instret += o.instret;
        translated += o.translated;
        elided += o.elided;
        bus += o.bus;
        ssm_events += o.ssm_events;
        monitor_events += o.monitor_events;
        evidence += o.evidence;
        frames_accepted += o.frames_accepted;
        frames_rejected += o.frames_rejected;
        return *this;
    }
    Counters operator-(const Counters& o) const {
        Counters d;
        d.node_cycles = node_cycles - o.node_cycles;
        d.skipped = skipped - o.skipped;
        d.events = events - o.events;
        d.instret = instret - o.instret;
        d.translated = translated - o.translated;
        d.elided = elided - o.elided;
        d.bus = bus - o.bus;
        d.ssm_events = ssm_events - o.ssm_events;
        d.monitor_events = monitor_events - o.monitor_events;
        d.evidence = evidence - o.evidence;
        d.frames_accepted = frames_accepted - o.frames_accepted;
        d.frames_rejected = frames_rejected - o.frames_rejected;
        return d;
    }
};

template <typename M>
std::uint64_t monitor_events(const std::unique_ptr<M>& m) {
    return m ? m->events_emitted() : 0;
}

Counters snapshot(platform::Fleet& fleet) {
    Counters c;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        const platform::Node& n = fleet.device(i);
        c.node_cycles += n.sim.now();
        c.skipped += n.sim.cycles_skipped();
        c.events += n.sim.events_fired();
        c.instret += n.cpu.instret();
        c.translated += n.cpu.translated_instret();
        c.elided += n.cpu.elided_ops();
        c.bus += n.bus.transaction_count();
        if (n.ssm) {
            c.ssm_events += n.ssm->events_processed();
            c.evidence += n.ssm->evidence().size();
        }
        c.monitor_events +=
            monitor_events(n.bus_monitor) + monitor_events(n.cfi_monitor) +
            monitor_events(n.memory_monitor) + monitor_events(n.dift_monitor) +
            monitor_events(n.peripheral_monitor) +
            monitor_events(n.timing_monitor) +
            monitor_events(n.network_monitor) +
            monitor_events(n.environment_monitor) +
            monitor_events(n.config_monitor) +
            monitor_events(n.redundancy_monitor);
        if (n.channel) {
            c.frames_accepted += n.channel->accepted();
            c.frames_rejected += n.channel->rejected_tag() +
                                 n.channel->rejected_replay() +
                                 n.channel->rejected_malformed();
        }
    }
    return c;
}

// ---------------------------------------------------------------------
// Trials
// ---------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
    bool tamper_siem = false;
    std::string expect_digest;
};

/// Everything one run accumulates across its trials.
struct Run {
    Checks checks;
    std::string digest;
    std::vector<double> setup_s;
    std::vector<double> epoch_ms;         ///< Untraced epochs.
    std::vector<double> traced_epoch_ms;  ///< Traced epochs (--trace 1).
    double node_cycles = 0.0;             ///< Untraced epochs only.
    double epoch_wall_s = 0.0;
    std::vector<double> heap_per_node;
    std::vector<double> heap_after_setup_per_node;
    std::vector<double> heap_growth_per_kcycle;
    std::size_t trials = 0;

    // Traced-trial accumulators for the per-layer metrics.
    Counters traced;
    std::size_t traced_epochs = 0;
    double run_phase_s = 0.0;
    double drain_phase_s = 0.0;
    std::uint64_t siem_records = 0;
    std::uint64_t health_valid = 0;
    std::uint64_t health_total = 0;
    std::map<std::string, double> layers;
};

void run_trial(const Workload& w, const Options& opt, Tracer& tracer,
               Run& run) {
    const bool traced = tracer.enabled();
    const std::size_t devices = w.config.device_count;
    const double n = static_cast<double>(devices);
    const int trial = tracer.open("trial", -1);
    const std::size_t heap0 = live_heap_bytes();

    std::unique_ptr<platform::Fleet> fleet;
    const double setup = timed(tracer, "platform.enrol", trial, -1, [&] {
        fleet = std::make_unique<platform::Fleet>(w.config);
    });
    run.setup_s.push_back(setup);
    const std::size_t heap_setup = live_heap_bytes();
    run.heap_after_setup_per_node.push_back(
        static_cast<double>(heap_setup - heap0) / n);

    // The campaigns own state their scheduled events reference, so they
    // live as long as the fleet. The seed picks the worm's patient zero;
    // replay taps are capped at 512 devices
    // (the correlation bar needs 8) to keep wire overhead flat.
    attack::WormCampaign::Options worm_options;
    worm_options.patient_zero = static_cast<std::size_t>(opt.seed % devices);
    attack::WormCampaign worm(worm_options);
    attack::CoordinatedReplayCampaign::Options replay_options;
    replay_options.replay_at = 15000;
    replay_options.stagger = 20;
    replay_options.device_count = std::min<std::size_t>(devices, 512);
    attack::CoordinatedReplayCampaign replay(replay_options);
    attack::StaggeredDowngradeCampaign downgrade;
    if (w.campaigns) {
        timed(tracer, "campaign.launch", trial, -1, [&] {
            worm.launch(*fleet);
            replay.launch(*fleet);
            downgrade.launch(*fleet);
        });
    }

    Counters last = traced ? snapshot(*fleet) : Counters{};
    std::size_t epochs = 0;
    for (; epochs < w.epochs; ++epochs) {
        const long long id =
            static_cast<long long>(run.trials * 1000 + epochs);
        const int epoch = tracer.open("epoch", trial, id);
        const auto t0 = Clock::now();

        const double run_s = timed(tracer, "platform.run", epoch, id,
                                   [&] { fleet->run(w.epoch_cycles); });
        platform::SweepResult sweep;
        timed(tracer, "platform.sweep", epoch, id,
              [&] { sweep = fleet->attestation_sweep(); });
        platform::HealthSummary health;
        timed(tracer, "platform.health", epoch, id,
              [&] { health = fleet->collect_health(); });
        std::size_t records = 0;
        double drain_s = 0.0;
        if (w.config.resilient) {
            drain_s = timed(tracer, "platform.drain", epoch, id,
                            [&] { records = fleet->drain_siem(); });
            timed(tracer, "platform.metrics_scrape", epoch, id, [&] {
                const obs::MetricsRegistry scrape = fleet->collect_metrics();
                run.checks.expect("metrics scrape", scrape.size() > 0);
            });
        }
        Counters after;
        if (traced) {
            timed(tracer, "trace.counters", epoch, id,
                  [&] { after = snapshot(*fleet); });
        }
        const double wall_ms = seconds_since(t0) * 1e3;
        tracer.close(epoch);

        // Campaigns attack channels and updates, never the measured
        // firmware, so every estate must attest trusted.
        run.checks.count("attestation trusted", devices,
                         devices - sweep.trusted);
        std::uint64_t valid = 0;
        for (const bool v : health.report_valid) valid += v ? 1 : 0;
        if (w.config.resilient) {
            run.checks.count("health report valid", devices, devices - valid);
        }

        if (traced) {
            run.traced_epoch_ms.push_back(wall_ms);
            run.traced += after - last;
            last = after;
            ++run.traced_epochs;
            run.run_phase_s += run_s;
            run.drain_phase_s += drain_s;
            run.siem_records += records;
            run.health_valid += valid;
            run.health_total += devices;
        } else {
            run.epoch_ms.push_back(wall_ms);
            run.node_cycles += n * static_cast<double>(w.epoch_cycles);
            run.epoch_wall_s += wall_ms / 1e3;
        }

        if (w.campaigns && all_campaigns_detected(*fleet) &&
            fleet->campaign_monitor().provenance().edges.size() >=
                worm.edges().size()) {
            ++epochs;
            break;
        }
    }

    const std::size_t heap_end = live_heap_bytes();
    run.heap_per_node.push_back(static_cast<double>(heap_end - heap0) / n);
    const double kcycles =
        static_cast<double>(epochs * w.epoch_cycles) / 1000.0;
    run.heap_growth_per_kcycle.push_back(
        (static_cast<double>(heap_end) - static_cast<double>(heap_setup)) /
        n / kcycles);

    const int checks = tracer.open("checks", trial);
    const std::string digest = estate_digest(*fleet);
    if (run.digest.empty()) run.digest = digest;
    run.checks.expect("estate digest identical across trials",
                      digest == run.digest);
    if (!opt.expect_digest.empty()) {
        run.checks.expect("estate digest matches --expect-digest",
                          digest == opt.expect_digest);
    }
    if (w.config.resilient) {
        const std::string& jsonl = fleet->siem_stream().jsonl();
        obs::SiemVerifyResult verdict;
        const double verify_s =
            timed(tracer, "obs.siem_verify", checks, -1, [&] {
                verdict = opt.tamper_siem
                              ? obs::SiemStream::verify(tampered(jsonl),
                                                        fleet->siem_key())
                              : obs::SiemStream::verify(jsonl,
                                                        fleet->siem_key());
            });
        run.checks.expect("SIEM chain verifies", verdict.ok);
        if (traced) {
            run.layers["obs.verify_records_per_s"] =
                static_cast<double>(verdict.records) / verify_s;
        }
    }
    if (w.campaigns) {
        run.checks.expect(
            "worm detected",
            campaign_detected(*fleet, platform::CampaignKind::kWorm));
        run.checks.expect(
            "coordinated replay detected",
            campaign_detected(*fleet,
                              platform::CampaignKind::kCoordinatedReplay));
        run.checks.expect(
            "staggered downgrade detected",
            campaign_detected(*fleet,
                              platform::CampaignKind::kStaggeredDowngrade));
        run.checks.expect("provenance matches worm edges",
                          provenance_exact(*fleet, worm));
        const double latency =
            static_cast<double>(max_detection_latency(*fleet));
        double& recorded = run.layers["detection_latency_cycles"];
        if (run.trials > 0) {
            run.checks.expect("detection latency identical across trials",
                              recorded == latency);
        }
        recorded = latency;
    }
    tracer.close(checks);

    if (traced) {
        std::uint64_t dropped = 0;
        for (std::size_t i = 0; i < devices; ++i) {
            dropped += fleet->device(i).siem.dropped();
        }
        run.layers["obs.siem_dropped"] = static_cast<double>(dropped);
        run.layers["obs.series_per_node"] =
            static_cast<double>(fleet->device(0).metrics.size());
        run.layers["analysis.cache_hits"] =
            static_cast<double>(fleet->analysis_cache().hits());
        run.layers["analysis.cache_misses"] =
            static_cast<double>(fleet->analysis_cache().misses());
        run.layers["analysis.translation_cache_hits"] =
            static_cast<double>(fleet->translation_cache().hits());
        run.layers["mem.resident_ram_bytes_per_node"] =
            static_cast<double>(fleet->fleet_resident_ram_bytes()) / n;
        run.layers["platform.epochs_per_trial"] = static_cast<double>(epochs);
    }
    timed(tracer, "platform.teardown", trial, -1, [&] { fleet.reset(); });
    tracer.close(trial);
    ++run.trials;
}

// ---------------------------------------------------------------------
// Single-layer probes (--trace 1 only)
// ---------------------------------------------------------------------

/// One standalone Node of the workload's configuration, one span per
/// public call (construct, provision, load, arm), repeated; records the
/// median live-heap growth of each step.
void probe_node(const Workload& w, Tracer& tracer, Run& run) {
    const platform::FleetConfig& fc = w.config;
    const isa::Program program = estate_program(fc);
    const crypto::MerkleSigner vendor(crypto::sha256(to_bytes("perfbench")), 6);
    auto translation = std::make_shared<platform::TranslationCache>();
    auto analysis =
        std::make_shared<platform::AnalysisCache>(analysis::Policy{});
    auto store = std::make_shared<platform::FirmwareStore>();
    Rng rng(fc.seed);

    std::vector<double> build, provision, load, arm;
    for (int rep = 0; rep < 21; ++rep) {
        platform::NodeConfig nc;
        nc.name = "probe-" + std::to_string(rep);
        nc.resilient = fc.resilient;
        nc.seed = fc.seed ^ static_cast<std::uint64_t>(rep);
        nc.metrics = fc.metrics;
        nc.flight_recorder_capacity = fc.flight_recorder_capacity;
        nc.siem_buffer_capacity = fc.siem_buffer_capacity;
        nc.causal_tracing = fc.causal_tracing;
        nc.quiescence = fc.quiescence;
        nc.translate = fc.translate;
        nc.translation_cache = translation;
        nc.analysis_cache = analysis;
        nc.elide_proven_checks = fc.elide_proven_checks;
        nc.firmware_store = store;
        const Bytes root = rng.bytes(32);

        const int parent = tracer.open("probe.node", -1);
        std::unique_ptr<platform::Node> node;
        std::size_t h0 = live_heap_bytes();
        timed(tracer, "platform.node_build", parent, -1,
              [&] { node = std::make_unique<platform::Node>(nc); });
        std::size_t h1 = live_heap_bytes();
        timed(tracer, "platform.node_provision", parent, -1,
              [&] { node->provision(vendor.public_key(), root); });
        std::size_t h2 = live_heap_bytes();
        timed(tracer, "platform.node_load", parent, -1,
              [&] { node->load_and_start(program); });
        std::size_t h3 = live_heap_bytes();
        timed(tracer, "platform.node_arm", parent, -1,
              [&] { node->arm_resilience(program); });
        std::size_t h4 = live_heap_bytes();
        node.reset();
        tracer.close(parent);
        if (rep == 0) continue;  // First build fills the shared caches.
        const auto delta = [](std::size_t a, std::size_t b) {
            return static_cast<double>(b) - static_cast<double>(a);
        };
        build.push_back(delta(h0, h1));
        provision.push_back(delta(h1, h2));
        load.push_back(delta(h2, h3));
        arm.push_back(delta(h3, h4));
    }
    run.layers["heap.node_build_bytes"] = median(build);
    run.layers["heap.node_provision_bytes"] = median(provision);
    run.layers["heap.node_load_bytes"] = median(load);
    run.layers["heap.node_arm_bytes"] = median(arm);
}

void probe_crypto(const Workload& w, Tracer& tracer, Run& run) {
    Rng rng(w.config.seed);
    const Bytes kib = rng.bytes(1024);
    const Bytes msg = rng.bytes(64);
    constexpr double kWindow = 0.25;

    std::uint64_t hashes = 0;
    const double sha_s = timed(tracer, "crypto.sha256_1kib", -1, -1, [&] {
        const auto t0 = Clock::now();
        do {
            for (int i = 0; i < 256; ++i) {
                g_sink = crypto::sha256(kib)[0];
            }
            hashes += 256;
        } while (seconds_since(t0) < kWindow);
    });
    run.layers["crypto.sha256_1kib_mb_per_s"] =
        static_cast<double>(hashes) * 1024.0 / sha_s / 1e6;

    const crypto::HmacSha256 mac(rng.bytes(32));
    std::uint64_t tags = 0;
    const double hmac_s = timed(tracer, "crypto.hmac_64b", -1, -1, [&] {
        const auto t0 = Clock::now();
        do {
            for (int i = 0; i < 1024; ++i) {
                g_sink = mac.tag(msg)[0];
            }
            tags += 1024;
        } while (seconds_since(t0) < kWindow);
    });
    run.layers["crypto.hmac_64b_tags_per_s"] =
        static_cast<double>(tags) / hmac_s;

    std::vector<double> keygen_ms;
    for (int i = 0; i < 5; ++i) {
        const crypto::Hash256 seed = crypto::sha256(rng.bytes(32));
        keygen_ms.push_back(
            timed(tracer, "crypto.vendor_keygen", -1, -1, [&] {
                const crypto::MerkleSigner signer(seed, 6);
                g_sink = signer.public_key().root[0];
            }) * 1e3);
    }
    run.layers["crypto.vendor_keygen_ms"] = median(keygen_ms);
}

/// A CPU-only machine: app RAM plus RAM stand-ins for the peripherals
/// the control loop touches, so wall time is guest execution alone.
struct GuestMachine {
    mem::Bus bus;
    mem::Ram app_ram{"app_ram", platform::kAppRamSize};
    mem::Ram wdog{"wdog", 0x100};
    mem::Ram sensor{"sensor", 0x100};
    mem::Ram actuator{"actuator", 0x100};
    isa::Cpu cpu{"cpu", bus};

    explicit GuestMachine(const isa::Program& program) {
        bus.map({"app_ram", platform::kAppRamBase, platform::kAppRamSize,
                 false, false},
                app_ram);
        bus.map({"wdog", platform::kWdogBase, 0x100, false, false}, wdog);
        bus.map({"sensor", platform::kSensorBase, 0x100, false, false},
                sensor);
        bus.map({"actuator", platform::kActuatorBase, 0x100, false, false},
                actuator);
        cpu.set_ecall_handler([](isa::Cpu&, std::uint16_t) { return true; });
        app_ram.load(program.origin - platform::kAppRamBase, program.code);
        cpu.reset(program.origin);
        cpu.install_translation(analysis::translate_image_shared(
            program.code, program.origin, program.origin));
    }
};

/// Guest MIPS of the busy control-loop firmware on tier 1 (step()) and
/// tier 2 (run_steps()); a WFI firmware would park immediately.
void probe_isa(const Workload& w, Tracer& tracer, Run& run) {
    const isa::Program program =
        platform::control_loop_program(w.config.workload);
    constexpr double kWindow = 0.25;
    constexpr std::uint64_t kChunk = 1u << 16;
    for (const bool threaded : {false, true}) {
        GuestMachine m(program);
        const double s = timed(
            tracer, threaded ? "isa.tier2" : "isa.tier1", -1, -1, [&] {
                const auto t0 = Clock::now();
                do {
                    if (threaded) {
                        (void)m.cpu.run_steps(kChunk);
                    } else {
                        for (std::uint64_t i = 0; i < kChunk; ++i) {
                            if (!m.cpu.step()) break;
                        }
                    }
                } while (seconds_since(t0) < kWindow && !m.cpu.halted());
            });
        run.layers[threaded ? "isa.tier2_mips" : "isa.tier1_mips"] =
            static_cast<double>(m.cpu.instret()) / s / 1e6;
    }
}

void probe_analysis(const Workload& w, Tracer& tracer, Run& run) {
    const isa::Program program = estate_program(w.config);
    const analysis::FirmwareVerifier verifier{analysis::Policy{}};
    std::vector<double> verify_ms;
    std::vector<double> translate_ms;
    for (int i = 0; i < 9; ++i) {
        analysis::Report report;
        verify_ms.push_back(timed(tracer, "analysis.verify", -1, -1, [&] {
                                report = verifier.analyze(program.code,
                                                          program.origin,
                                                          program.origin);
                            }) * 1e3);
        translate_ms.push_back(
            timed(tracer, "analysis.translate", -1, -1, [&] {
                const isa::TranslationImage image = analysis::translate_image(
                    program.code, program.origin, program.origin,
                    report.proofs.get());
                g_sink = static_cast<std::uint8_t>(image.uops.size());
            }) * 1e3);
    }
    run.layers["analysis.verify_ms_per_image"] = median(verify_ms);
    run.layers["analysis.translate_ms_per_image"] = median(translate_ms);
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_array(const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i > 0) out += ",";
        out += json_number(v[i]);
    }
    return out + "]";
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        out += ch;
    }
    return out + "\"";
}

void finish_layers(const Workload& w, const Tracer& tracer, Run& run) {
    auto& L = run.layers;
    const double epochs =
        static_cast<double>(std::max<std::size_t>(1, run.traced_epochs));
    const Counters& c = run.traced;
    const double stepped = static_cast<double>(c.node_cycles - c.skipped);
    const auto ms = [&](const std::string& name) {
        return median(tracer.durations(name)) / 1e3;
    };
    const auto us = [&](const std::string& name) {
        return median(tracer.durations(name));
    };

    L["platform.enrol_ms"] = ms("platform.enrol");
    L["platform.node_build_us"] = us("platform.node_build");
    L["platform.node_provision_us"] = us("platform.node_provision");
    L["platform.node_load_us"] = us("platform.node_load");
    L["platform.node_arm_us"] = us("platform.node_arm");
    L["platform.run_ms"] = ms("platform.run");
    L["platform.sweep_ms"] = ms("platform.sweep");
    L["platform.health_ms"] = ms("platform.health");
    L["platform.drain_ms"] = ms("platform.drain");
    L["platform.metrics_scrape_ms"] = ms("platform.metrics_scrape");

    L["sim.cycles_stepped"] = stepped / epochs;
    L["sim.skip_ratio"] = static_cast<double>(c.skipped) /
                          static_cast<double>(
                              std::max<std::uint64_t>(1, c.node_cycles));
    L["sim.events_fired"] = static_cast<double>(c.events) / epochs;
    L["sim.ns_per_stepped_cycle"] =
        stepped > 0.0 ? run.run_phase_s * 1e9 *
                            static_cast<double>(kWorkerThreads) / stepped
                      : 0.0;

    L["isa.instret"] = static_cast<double>(c.instret) / epochs;
    L["isa.translated_share"] =
        c.instret > 0 ? static_cast<double>(c.translated) /
                            static_cast<double>(c.instret)
                      : 0.0;
    L["isa.elided_ops"] = static_cast<double>(c.elided) / epochs;
    L["mem.bus_transactions"] = static_cast<double>(c.bus) / epochs;

    L["core.ssm_events"] = static_cast<double>(c.ssm_events) / epochs;
    L["core.monitor_events"] = static_cast<double>(c.monitor_events) / epochs;
    L["core.evidence_records"] = static_cast<double>(c.evidence) / epochs;
    L["core.health_valid_ratio"] =
        run.health_total > 0 ? static_cast<double>(run.health_valid) /
                                   static_cast<double>(run.health_total)
                             : 0.0;

    L["net.attest_us_per_device"] =
        us("platform.sweep") / static_cast<double>(w.config.device_count);
    L["net.frames_accepted"] = static_cast<double>(c.frames_accepted) / epochs;
    L["net.frames_rejected"] = static_cast<double>(c.frames_rejected) / epochs;

    L["obs.siem_records"] = static_cast<double>(run.siem_records) / epochs;
    L["obs.drain_records_per_s"] =
        run.drain_phase_s > 0.0
            ? static_cast<double>(run.siem_records) / run.drain_phase_s
            : 0.0;

    L["heap.after_setup_bytes_per_node"] =
        median(run.heap_after_setup_per_node);
    L["heap.growth_bytes_per_node_per_kcycle"] =
        median(run.heap_growth_per_kcycle);
    L["trace.phase_coverage_min"] = tracer.min_epoch_coverage();
    // Layers a workload does not exercise read 0.
    L.emplace("obs.verify_records_per_s", 0.0);
    L.emplace("detection_latency_cycles", 0.0);
    L["tracing_overhead_ratio"] =
        median(run.traced_epoch_ms) / median(run.epoch_ms);
}

int usage() {
    std::cerr << "usage: perfbench_fleet --workload passive_wfi|resilient_busy|"
                 "campaign_siem --seed N --seconds S --trace 0|1 "
                 "[--out DIR] [--expect-digest HEX] [--tamper-siem]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            opt.trace = value() == "1";
        } else if (arg == "--out") {
            opt.out_dir = value();
        } else if (arg == "--expect-digest") {
            opt.expect_digest = value();
        } else if (arg == "--tamper-siem") {
            opt.tamper_siem = true;
        } else {
            return usage();
        }
    }
    Workload w;
    if (!make_workload(opt.workload, opt.seed, w)) return usage();
    if (std::string(CRES_BENCH_BUILD_TYPE) != "Release") {
        std::cerr << "perfbench_fleet: refusing to measure a "
                  << CRES_BENCH_BUILD_TYPE << " build\n";
        return 2;
    }

    Tracer tracer;
    Run run;
    const auto start = Clock::now();
    // --trace 1 alternates traced and untraced trials (tracing overhead
    // is their epoch-time ratio), so it needs at least one of each; the
    // tail percentile needs more than 10 untraced epochs.
    const std::size_t min_trials = opt.trace ? 2 : 1;
    while (run.trials < min_trials || run.epoch_ms.size() <= 10 ||
           seconds_since(start) < opt.seconds) {
        tracer.set_enabled(opt.trace && run.trials % 2 == 0);
        run_trial(w, opt, tracer, run);
    }
    const double measured_s = seconds_since(start);

    std::string trace_file;
    if (opt.trace) {
        tracer.set_enabled(true);
        probe_node(w, tracer, run);
        probe_crypto(w, tracer, run);
        probe_isa(w, tracer, run);
        probe_analysis(w, tracer, run);
        finish_layers(w, tracer, run);
        run.checks.expect("phase spans cover >= 95% of every epoch",
                          run.layers["trace.phase_coverage_min"] >= 0.95);
        trace_file = opt.out_dir + "/" + w.name + "-seed" +
                     std::to_string(opt.seed) + ".trace.json";
        run.checks.expect("trace file written",
                          tracer.write_chrome_trace(trace_file));
    }

    for (const std::string& f : run.checks.failures) {
        std::cerr << "CHECK FAILED: " << f << "\n";
    }

    std::ostringstream out;
    out << "{\"workload\":" << json_string(w.name)
        << ",\"seed\":" << opt.seed
        << ",\"devices\":" << w.config.device_count
        << ",\"worker_threads\":" << kWorkerThreads
        << ",\"build_type\":" << json_string(CRES_BENCH_BUILD_TYPE)
        << ",\"compiler\":" << json_string(CRES_BENCH_COMPILER)
        << ",\"compiler_version\":" << json_string(CRES_BENCH_COMPILER_VERSION)
        << ",\"flags\":" << json_string(CRES_BENCH_FLAGS)
        << ",\"sha256_backend\":" << json_string(crypto::sha256_backend())
        << ",\"digest\":" << json_string(run.digest)
        << ",\"attempted\":" << run.checks.attempted
        << ",\"failed\":" << run.checks.failed
        << ",\"trials\":" << run.trials
        << ",\"measured_s\":" << json_number(measured_s)
        << ",\"setup_s\":" << json_array(run.setup_s)
        << ",\"epoch_ms\":" << json_array(run.epoch_ms)
        << ",\"node_cycles\":" << json_number(run.node_cycles)
        << ",\"epoch_wall_s\":" << json_number(run.epoch_wall_s)
        << ",\"heap_bytes_per_node\":" << json_array(run.heap_per_node)
        << ",\"peak_rss_bytes\":" << peak_rss_bytes()
        << ",\"trace_file\":" << json_string(trace_file)
        << ",\"layers\":{";
    bool first = true;
    for (const auto& [name, value] : run.layers) {
        out << (first ? "" : ",") << json_string(name) << ":"
            << json_number(value);
        first = false;
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return run.checks.failed == 0 ? 0 : 1;
}
