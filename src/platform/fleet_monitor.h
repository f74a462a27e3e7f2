// Fleet correlation engine — the fleet tier of the device→fleet
// monitor hierarchy. It consumes the per-device SIEM records the Fleet
// drains in device-index order and detects cross-device campaigns that
// are invisible to any single device's SSM:
//
//   * Worm propagation: forged channel frames carry the claimed origin
//     in their sequence field; each (origin -> victim) advisory becomes
//     an edge in an infection graph, and a connected component growing
//     to 8 devices is a campaign — even though every single
//     device only ever saw a sub-streak advisory.
//
//   * Coordinated M2M replay: the same replayed sequence fingerprint
//     surfacing on >= 8 distinct devices inside a 60k-cycle window.
//     One stale frame per device is advisory noise; the same
//     fingerprint fleet-wide is an orchestrated attack.
//
//   * Staggered downgrade: rolling waves of anti-rollback rejections
//     (version-regression installs) across >= 8 devices inside a
//     200k-cycle window — an estate-wide downgrade attempt paced to
//     stay under every per-device threshold.
//
// The thresholds are constants in fleet_monitor.cpp.
//
// Detection is pure serial reduction over the drained stream, so the
// verdicts are bit-identical at any worker_threads setting. Detected
// campaigns land in the existing observability vocabulary: a fleet
// SpanTracer (detect latency = first evidence -> detection), fleet
// metrics counters/histograms, the fleet flight recorder, one SIEM
// campaign record, and a sealed fleet postmortem bundle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/postmortem.h"
#include "obs/siem.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace cres::platform {

enum class CampaignKind : std::uint8_t {
    kWorm = 0,
    kCoordinatedReplay,
    kStaggeredDowngrade,
};
constexpr std::size_t kCampaignKindCount = 3;

[[nodiscard]] std::string_view campaign_kind_name(CampaignKind kind) noexcept;

/// One detected fleet-level campaign.
struct CampaignIncident {
    CampaignKind kind = CampaignKind::kWorm;
    std::uint64_t id = 0;
    std::uint64_t first_at = 0;     ///< Earliest contributing evidence.
    std::uint64_t detected_at = 0;  ///< Record that crossed the bar.
    std::uint64_t device_total = 0;
    /// Contributing device indices (ascending, capped at kDeviceSample
    /// so a 50k-device worm doesn't balloon the incident record).
    static constexpr std::size_t kDeviceSample = 64;
    std::vector<std::uint32_t> devices;
    /// Campaign-specific scalar: worm component root, replay sequence,
    /// downgrade offered version.
    std::uint64_t fingerprint = 0;
    std::string detail;
};

/// One reconstructed infection edge (a trace-carrying worm advisory).
struct ProvenanceEdge {
    std::uint32_t parent = 0;  ///< Claimed sender (sequence field).
    std::uint32_t child = 0;   ///< Victim that reported the frame.
    std::uint32_t hop = 0;     ///< Child's depth below patient zero.
    std::uint64_t span = 0;         ///< Infecting frame's span id.
    std::uint64_t parent_span = 0;  ///< Span that caused the infection.
    std::uint64_t at = 0;           ///< Victim's observation cycle.
};

/// Exact infection DAG reconstructed from propagated trace contexts —
/// the replacement for the blind union-find component on traced
/// estates: who patient zero was, who infected whom, and how deep the
/// propagation tree ran.
struct ProvenanceReport {
    bool traced = false;  ///< At least one traced worm edge seen.
    bool exact = false;   ///< Every in-range worm edge carried a trace.
    std::uint32_t patient_zero = 0;  ///< Trace origin (chain root).
    std::uint32_t max_hop = 0;       ///< Deepest reconstructed hop.
    std::vector<ProvenanceEdge> edges;  ///< First-per-victim, in order.
};

class FleetMonitor {
public:
    /// Correlates records from devices 0..device_count-1.
    /// `registry`/`recorder` are the fleet-level instances (owned by
    /// the Fleet, merged/exported after the per-device artefacts).
    FleetMonitor(std::size_t device_count, obs::MetricsRegistry& registry,
                 obs::FlightRecorder& recorder);

    /// Feeds one drained per-device record. Called serially in device-
    /// index order by Fleet::drain_siem().
    void observe(std::uint32_t device_index, const obs::SiemEvent& event);

    /// Appends one SIEM campaign record per newly detected campaign to
    /// the export stream (called at the end of each drain), then
    /// snapshots the stream chain head into the campaign's postmortem
    /// bundle.
    void flush(obs::SiemStream& stream);

    [[nodiscard]] const std::vector<CampaignIncident>& campaigns()
        const noexcept {
        return campaigns_;
    }
    [[nodiscard]] const std::vector<obs::PostmortemBundle>& postmortems()
        const noexcept {
        return postmortems_;
    }
    [[nodiscard]] const obs::SpanTracer& spans() const noexcept {
        return spans_;
    }

    /// The reconstructed infection DAG (empty/untraced when no worm
    /// advisory carried a trace context).
    [[nodiscard]] const ProvenanceReport& provenance() const noexcept {
        return provenance_;
    }

    /// Compact propagation-tree rendering: "p->c,p->c,..." sorted by
    /// parent then child, capped at `max_edges` (",..." suffix when
    /// truncated). Empty when untraced.
    [[nodiscard]] std::string propagation_tree(
        std::size_t max_edges = CampaignIncident::kDeviceSample) const;

    /// The provenance report as a JSON object (patient zero, depth,
    /// edge list capped at kDeviceSample) — embedded verbatim into
    /// sealed worm-campaign postmortem bundles.
    [[nodiscard]] std::string provenance_json() const;

private:
    struct WindowTrack {
        /// device -> latest in-window sighting.
        std::map<std::uint32_t, std::uint64_t> last_seen;
        bool flagged = false;
    };

    void observe_worm(std::uint32_t victim, const obs::SiemEvent& event);
    /// Adds `device`'s sighting to `track` after dropping sightings more
    /// than `window` cycles old. The sighting that brings the track to
    /// the campaign bar emits a campaign of `kind` with `detail`.
    void observe_window(CampaignKind kind, WindowTrack& track,
                        sim::Cycle window, std::uint32_t device,
                        const obs::SiemEvent& event, std::string detail);
    /// Registers the campaign, emits spans/metrics/recorder records and
    /// stages the SIEM record for the next flush().
    void emit(CampaignKind kind, std::uint64_t first_at,
              std::uint64_t detected_at, std::uint64_t fingerprint,
              std::vector<std::uint32_t> devices, std::uint64_t device_total,
              std::string detail);

    [[nodiscard]] std::uint32_t find_root(std::uint32_t device);

    std::size_t device_count_;
    obs::MetricsRegistry& registry_;
    obs::FlightRecorder& recorder_;
    obs::SpanTracer spans_;
    obs::Histogram* m_latency_;
    obs::Gauge* m_latency_p95_;
    obs::Histogram* m_depth_;
    obs::Counter* m_kind_[kCampaignKindCount];

    // Exact provenance (trace-carrying worm advisories). One edge per
    // victim (first wins — deterministic in the serial drain order);
    // untraced in-range edges poison exactness but still feed the
    // union-find fallback below.
    ProvenanceReport provenance_;
    std::vector<bool> prov_child_seen_;
    std::uint64_t untraced_worm_edges_ = 0;

    // Worm infection graph: union-find over device indices. size_ and
    // first_at_ are root-indexed; flagged_ roots already campaigned.
    std::vector<std::uint32_t> parent_;
    std::vector<std::uint32_t> rank_;
    std::vector<std::uint32_t> comp_size_;
    std::vector<std::uint64_t> comp_first_at_;
    std::vector<bool> comp_flagged_;
    /// Devices that contributed at least one worm edge (a lone device
    /// is not "infected" until an edge touches it).
    std::vector<bool> worm_member_;

    std::map<std::uint64_t, WindowTrack> replay_by_fingerprint_;
    std::map<std::uint64_t, WindowTrack> downgrade_by_version_;

    std::vector<CampaignIncident> campaigns_;
    std::vector<obs::PostmortemBundle> postmortems_;
    std::size_t siem_published_ = 0;  ///< Campaigns already flushed.
};

}  // namespace cres::platform
