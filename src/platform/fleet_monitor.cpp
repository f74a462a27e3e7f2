#include "platform/fleet_monitor.h"

#include <algorithm>
#include <utility>

#include "obs/syslog.h"

namespace cres::platform {

namespace {

constexpr std::uint64_t kUnset = ~std::uint64_t{0};

/// Infection-graph component size that flags a worm.
constexpr std::size_t kWormMinDevices = 8;
/// Distinct devices that flag a windowed track: reporting one replay
/// fingerprint, or rejecting one downgrade version, in-window.
constexpr std::size_t kWindowMinDevices = 8;
constexpr sim::Cycle kReplayWindow = 60000;
constexpr sim::Cycle kDowngradeWindow = 200000;

}  // namespace

std::string_view campaign_kind_name(CampaignKind kind) noexcept {
    switch (kind) {
        case CampaignKind::kWorm: return "worm-propagation";
        case CampaignKind::kCoordinatedReplay: return "coordinated-replay";
        case CampaignKind::kStaggeredDowngrade: return "staggered-downgrade";
    }
    return "?";
}

FleetMonitor::FleetMonitor(std::size_t device_count,
                           obs::MetricsRegistry& registry,
                           obs::FlightRecorder& recorder)
    : device_count_(device_count),
      registry_(registry),
      recorder_(recorder),
      spans_(registry, "cres_fleet_csf"),
      m_latency_(&registry.histogram(
          "cres_fleet_campaign_detection_latency_cycles")),
      m_latency_p95_(&registry.gauge(
          "cres_fleet_campaign_detection_latency_p95_cycles")),
      m_depth_(&registry.histogram("cres_fleet_infection_depth")),
      prov_child_seen_(device_count_, false),
      parent_(device_count_),
      rank_(device_count_, 0),
      comp_size_(device_count_, 0),
      comp_first_at_(device_count_, kUnset),
      comp_flagged_(device_count_, false),
      worm_member_(device_count_, false) {
    for (std::uint32_t i = 0; i < parent_.size(); ++i) parent_[i] = i;
    for (std::size_t k = 0; k < kCampaignKindCount; ++k) {
        m_kind_[k] = &registry.counter(
            "cres_fleet_campaigns_total{kind=\"" +
            std::string(campaign_kind_name(static_cast<CampaignKind>(k))) +
            "\"}");
    }
    registry.set_help("cres_fleet_campaigns_total",
                      "Detected fleet-level campaigns by kind");
    registry.set_help("cres_fleet_campaign_detection_latency_cycles",
                      "First contributing evidence to campaign detection");
    registry.set_help("cres_fleet_campaign_detection_latency_p95_cycles",
                      "Estimated p95 of campaign detection latency");
    registry.set_help("cres_fleet_infection_depth",
                      "Reconstructed worm hop depth per traced edge");
}

std::uint32_t FleetMonitor::find_root(std::uint32_t device) {
    while (parent_[device] != device) {
        parent_[device] = parent_[parent_[device]];  // Path halving.
        device = parent_[device];
    }
    return device;
}

void FleetMonitor::observe(std::uint32_t device_index,
                           const obs::SiemEvent& event) {
    if (event.source == "network-monitor") {
        if (event.detail == "frame failed authentication") {
            observe_worm(device_index, event);
        } else if (event.detail == "replayed frame detected") {
            observe_window(CampaignKind::kCoordinatedReplay,
                           replay_by_fingerprint_[event.a], kReplayWindow,
                           device_index, event,
                           "coordinated replay: sequence " +
                               std::to_string(event.a) + " replayed on " +
                               std::to_string(kWindowMinDevices) + " devices");
        }
    } else if (event.source == "update-agent" &&
               event.detail == "rejected install (version-regression)") {
        observe_window(CampaignKind::kStaggeredDowngrade,
                       downgrade_by_version_[event.a], kDowngradeWindow,
                       device_index, event,
                       "staggered downgrade: version " +
                           std::to_string(event.a) + " pushed to " +
                           std::to_string(kWindowMinDevices) +
                           " devices against floor " +
                           std::to_string(event.b));
    }
}

void FleetMonitor::observe_worm(std::uint32_t victim,
                                const obs::SiemEvent& event) {
    // The forged frame's claimed sequence carries the sender's device
    // index — channel-peer metadata, not trusted content. Out-of-range
    // origins (ordinary forgery noise, real MITM garbage) contribute no
    // edge.
    const std::uint64_t claimed = event.a;
    if (claimed >= device_count_ || victim >= device_count_) return;
    const auto origin = static_cast<std::uint32_t>(claimed);
    if (origin == victim) return;

    // Exact provenance: a propagated trace context names the true chain
    // root and the victim's depth, turning this advisory into a DAG edge
    // instead of an anonymous union-find merge. First edge per victim
    // wins (serial drain order makes that deterministic); any in-range
    // worm edge *without* a trace poisons exactness — the DAG can no
    // longer claim to be the whole story.
    if (event.traced) {
        provenance_.traced = true;
        if (event.trace_origin < device_count_) {
            provenance_.patient_zero = event.trace_origin;
        }
        if (!prov_child_seen_[victim]) {
            prov_child_seen_[victim] = true;
            provenance_.edges.push_back(ProvenanceEdge{
                origin, victim, event.trace_hop, event.trace_span,
                event.trace_parent, event.at});
            provenance_.max_hop =
                std::max(provenance_.max_hop, event.trace_hop);
            m_depth_->record(event.trace_hop);
        }
    } else {
        ++untraced_worm_edges_;
    }
    provenance_.exact = provenance_.traced && untraced_worm_edges_ == 0;

    const auto touch = [this, &event](std::uint32_t device) {
        const std::uint32_t root = find_root(device);
        if (!worm_member_[device]) {
            worm_member_[device] = true;
            ++comp_size_[root];
        }
        if (event.at < comp_first_at_[root]) comp_first_at_[root] = event.at;
    };
    touch(origin);
    touch(victim);

    std::uint32_t ra = find_root(origin);
    std::uint32_t rb = find_root(victim);
    if (ra != rb) {
        if (rank_[ra] < rank_[rb]) std::swap(ra, rb);
        parent_[rb] = ra;
        if (rank_[ra] == rank_[rb]) ++rank_[ra];
        comp_size_[ra] += comp_size_[rb];
        comp_first_at_[ra] = std::min(comp_first_at_[ra], comp_first_at_[rb]);
        if (comp_flagged_[rb]) comp_flagged_[ra] = true;
    }

    const std::uint32_t root = find_root(victim);
    if (comp_flagged_[root] || comp_size_[root] < kWormMinDevices) {
        return;
    }
    comp_flagged_[root] = true;

    std::vector<std::uint32_t> members;
    for (std::uint32_t d = 0; d < device_count_; ++d) {
        if (!worm_member_[d] || find_root(d) != root) continue;
        if (members.size() < CampaignIncident::kDeviceSample) {
            members.push_back(d);
        }
    }
    emit(CampaignKind::kWorm, comp_first_at_[root], event.at, root,
         std::move(members), comp_size_[root],
         "worm propagation: infection graph reached " +
             std::to_string(comp_size_[root]) + " devices");
}

void FleetMonitor::observe_window(CampaignKind kind, WindowTrack& track,
                                  sim::Cycle window, std::uint32_t device,
                                  const obs::SiemEvent& event,
                                  std::string detail) {
    if (track.flagged) return;
    for (auto it = track.last_seen.begin(); it != track.last_seen.end();) {
        if (it->second + window < event.at) {
            it = track.last_seen.erase(it);
        } else {
            ++it;
        }
    }
    // One sighting adds at most one device, so a track is flagged with
    // exactly kWindowMinDevices devices: the count `detail` names.
    track.last_seen[device] = event.at;
    if (track.last_seen.size() < kWindowMinDevices) return;
    track.flagged = true;

    std::uint64_t first_at = kUnset;
    std::vector<std::uint32_t> members;
    for (const auto& [d, at] : track.last_seen) {
        first_at = std::min(first_at, at);
        if (members.size() < CampaignIncident::kDeviceSample) {
            members.push_back(d);
        }
    }
    emit(kind, first_at, event.at, event.a, std::move(members),
         track.last_seen.size(), std::move(detail));
}

void FleetMonitor::emit(CampaignKind kind, std::uint64_t first_at,
                        std::uint64_t detected_at, std::uint64_t fingerprint,
                        std::vector<std::uint32_t> devices,
                        std::uint64_t device_total, std::string detail) {
    CampaignIncident incident;
    incident.kind = kind;
    incident.id = campaigns_.size();
    incident.first_at = first_at;
    incident.detected_at = detected_at;
    incident.device_total = device_total;
    incident.devices = std::move(devices);
    incident.fingerprint = fingerprint;
    incident.detail = std::move(detail);

    // Fleet CSF span: the campaign's lifetime runs from the earliest
    // contributing evidence to its detection; closing immediately makes
    // the span's total the detection latency.
    const std::uint64_t span = spans_.open(first_at);
    spans_.mark(span, obs::CsfPhase::kDetect, detected_at);
    spans_.close(span, detected_at);
    m_latency_->record(detected_at - first_at);
    m_latency_p95_->set(
        static_cast<std::int64_t>(m_latency_->estimate_quantile(0.95)));
    m_kind_[static_cast<std::size_t>(kind)]->inc();
    recorder_.record_slow(detected_at, "fleet-monitor", "campaign",
                          /*severity=*/3, obs::FlightRecordType::kInstant,
                          incident.id, fingerprint,
                          campaign_kind_name(kind));

    obs::PostmortemBundle bundle;
    bundle.device = "fleet";
    bundle.incident_id = incident.id;
    bundle.opened_at = first_at;
    bundle.closed_at = detected_at;
    bundle.window_begin = first_at;
    bundle.marked =
        (1U << static_cast<std::size_t>(obs::CsfPhase::kDetect)) |
        (1U << static_cast<std::size_t>(obs::CsfPhase::kRecover));
    bundle.phase_at[static_cast<std::size_t>(obs::CsfPhase::kDetect)] =
        detected_at;
    bundle.phase_at[static_cast<std::size_t>(obs::CsfPhase::kRecover)] =
        detected_at;
    postmortems_.push_back(std::move(bundle));

    campaigns_.push_back(std::move(incident));
}

std::string FleetMonitor::propagation_tree(std::size_t max_edges) const {
    if (provenance_.edges.empty()) return {};
    std::vector<std::pair<std::uint32_t, std::uint32_t>> sorted;
    sorted.reserve(provenance_.edges.size());
    for (const ProvenanceEdge& e : provenance_.edges) {
        sorted.emplace_back(e.parent, e.child);
    }
    std::sort(sorted.begin(), sorted.end());
    std::string out;
    std::size_t rendered = 0;
    for (const auto& [p, c] : sorted) {
        if (rendered == max_edges) {
            out += ",...";
            break;
        }
        if (!out.empty()) out += ',';
        out += std::to_string(p);
        out += "->";
        out += std::to_string(c);
        ++rendered;
    }
    return out;
}

std::string FleetMonitor::provenance_json() const {
    std::string out = "{\"traced\": ";
    out += provenance_.traced ? "true" : "false";
    out += ", \"exact\": ";
    out += provenance_.exact ? "true" : "false";
    out += ", \"patient_zero\": " + std::to_string(provenance_.patient_zero);
    out += ", \"max_hop\": " + std::to_string(provenance_.max_hop);
    out += ", \"edge_total\": " + std::to_string(provenance_.edges.size());
    out += ", \"edges\": [";
    const std::size_t cap =
        std::min(provenance_.edges.size(), CampaignIncident::kDeviceSample);
    for (std::size_t i = 0; i < cap; ++i) {
        const ProvenanceEdge& e = provenance_.edges[i];
        if (i != 0) out += ", ";
        out += "{\"parent\": " + std::to_string(e.parent);
        out += ", \"child\": " + std::to_string(e.child);
        out += ", \"hop\": " + std::to_string(e.hop);
        out += ", \"span\": " + std::to_string(e.span);
        out += ", \"parent_span\": " + std::to_string(e.parent_span);
        out += ", \"at\": " + std::to_string(e.at);
        out += "}";
    }
    out += "]}";
    return out;
}

void FleetMonitor::flush(obs::SiemStream& stream) {
    for (; siem_published_ < campaigns_.size(); ++siem_published_) {
        const CampaignIncident& incident = campaigns_[siem_published_];
        obs::SiemEvent record;
        record.at = incident.detected_at;
        record.kind = obs::SiemKind::kCampaign;
        record.severity = obs::rfc5424::kAlert;
        record.facility = obs::rfc5424::kFacAudit;
        record.category = "system";
        record.source = "fleet-monitor";
        record.resource = std::string(campaign_kind_name(incident.kind));
        record.detail = incident.detail;
        // Traced worm campaigns publish the reconstructed DAG as part of
        // the campaign record: attribution (patient zero) and the exact
        // propagation tree, not just a component size.
        if (incident.kind == CampaignKind::kWorm && provenance_.traced) {
            record.detail += "; patient zero device " +
                             std::to_string(provenance_.patient_zero) +
                             " (depth " +
                             std::to_string(provenance_.max_hop) + ", " +
                             (provenance_.exact ? "exact" : "partial") +
                             "); tree " + propagation_tree();
        }
        record.a = incident.device_total;
        record.b = incident.fingerprint;
        stream.append(obs::SiemStream::kFleetIndex, "fleet", record);

        // Anchor the campaign bundle to the export chain: the bundle
        // seals the head as of its own campaign record, so the bundle
        // and the stream corroborate each other offline.
        postmortems_[siem_published_].evidence_count = stream.records();
        postmortems_[siem_published_].evidence_head_hex = stream.head_hex();
    }

    // Edges keep accruing after detection; refresh every worm bundle's
    // embedded DAG on each flush so the final sealed artefact carries
    // the complete reconstruction (deterministic: the drain is serial).
    if (provenance_.traced) {
        const std::string dag = provenance_json();
        for (std::size_t i = 0; i < postmortems_.size(); ++i) {
            if (campaigns_[i].kind == CampaignKind::kWorm) {
                postmortems_[i].provenance_json = dag;
            }
        }
    }
}

}  // namespace cres::platform
