// Fleet-management tests: enrolment, attestation sweeps, health
// collection and compromise localisation across a device population.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "attack/attacks.h"
#include "attack/campaigns.h"
#include "core/ssm/report.h"
#include "obs/postmortem.h"
#include "platform/fleet.h"
#include "platform/fleet_monitor.h"

namespace cres::platform {
namespace {

FleetConfig small_fleet(bool resilient) {
    FleetConfig config;
    config.device_count = 4;
    config.resilient = resilient;
    config.seed = 17;
    return config;
}

TEST(Fleet, EnrollsAndRunsDevices) {
    Fleet fleet(small_fleet(true));
    ASSERT_EQ(fleet.size(), 4u);
    fleet.run(20000);
    EXPECT_GT(fleet.fleet_iterations(), 4 * 10u);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_GT(fleet.device(i).stats().control_iterations, 10u);
    }
}

TEST(Fleet, CleanSweepAllTrusted) {
    Fleet fleet(small_fleet(true));
    fleet.run(10000);
    const SweepResult sweep = fleet.attestation_sweep();
    EXPECT_EQ(sweep.trusted, 4u);
    EXPECT_EQ(sweep.flagged, 0u);
    EXPECT_TRUE(sweep.flagged_devices().empty());
}

TEST(Fleet, SweepLocalisesImplantedDevices) {
    Fleet fleet(small_fleet(true));
    fleet.run(10000);

    // Devices 1 and 3 get firmware implants (measured on next boot).
    crypto::Hash256 implant;
    implant.fill(0x66);
    fleet.device(1).pcrs.extend(boot::PcrBank::kPcrFirmware, implant);
    fleet.device(3).pcrs.extend(boot::PcrBank::kPcrFirmware, implant);

    const SweepResult sweep = fleet.attestation_sweep();
    EXPECT_EQ(sweep.flagged, 2u);
    EXPECT_EQ(sweep.flagged_devices(), (std::vector<std::size_t>{1, 3}));
    EXPECT_EQ(sweep.verdicts[1], net::AttestResult::kWrongMeasurement);
}

TEST(Fleet, ZeroisedDeviceFailsAttestation) {
    Fleet fleet(small_fleet(true));
    fleet.run(10000);
    // Device 2's response manager zeroised its keys (post-incident);
    // model by wiping the TEE's secure memory region.
    fleet.device(2).tee_ram.fill(0);
    const SweepResult sweep = fleet.attestation_sweep();
    EXPECT_EQ(sweep.verdicts[2], net::AttestResult::kBadTag);
    EXPECT_EQ(sweep.flagged, 1u);
}

TEST(Fleet, HealthCollectionVerifies) {
    Fleet fleet(small_fleet(true));
    fleet.run(10000);
    const HealthSummary health = fleet.collect_health();
    ASSERT_EQ(health.states.size(), 4u);
    EXPECT_EQ(health.healthy, 4u);
    for (const bool valid : health.report_valid) EXPECT_TRUE(valid);
}

TEST(Fleet, CompromisedDeviceShowsInHealth) {
    Fleet fleet(small_fleet(true));
    fleet.run(10000);

    attack::StackSmashAttack attack;
    attack.launch(fleet.device(0), fleet.device(0).sim.now() + 1000);
    fleet.run(30000);

    const HealthSummary health = fleet.collect_health();
    // Device 0 went through an incident; its report is still signed and
    // verifiable whatever state it ended in.
    EXPECT_TRUE(health.report_valid[0]);
    // And its evidence log tells the story.
    EXPECT_GT(fleet.device(0).ssm->evidence().size(), 1u);
}

TEST(Fleet, PassiveFleetHasNothingTrustworthyToSay) {
    Fleet fleet(small_fleet(false));
    fleet.run(10000);
    const HealthSummary health = fleet.collect_health();
    for (const bool valid : health.report_valid) EXPECT_FALSE(valid);
    // Attestation still works (it needs only the TEE), so implants are
    // still caught at sweep time even on passive devices...
    const SweepResult sweep = fleet.attestation_sweep();
    EXPECT_EQ(sweep.trusted, 4u);
}

TEST(Fleet, WireAttestationSweepWorks) {
    Fleet fleet(small_fleet(true));
    fleet.run(10000);
    const SweepResult sweep = fleet.attestation_sweep_wire();
    EXPECT_EQ(sweep.trusted, 4u);
    EXPECT_EQ(sweep.flagged, 0u);
}

TEST(Fleet, WireSweepFlagsImplant) {
    Fleet fleet(small_fleet(true));
    fleet.run(10000);
    crypto::Hash256 implant;
    implant.fill(0x66);
    fleet.device(0).pcrs.extend(boot::PcrBank::kPcrFirmware, implant);
    const SweepResult sweep = fleet.attestation_sweep_wire();
    EXPECT_EQ(sweep.verdicts[0], net::AttestResult::kWrongMeasurement);
    EXPECT_EQ(sweep.flagged, 1u);
}

TEST(Fleet, RunDrainsOperatorEndpointSoLateQuotesAreNotRead) {
    Fleet fleet(small_fleet(true));
    fleet.run(10200);
    // The devices pump their NICs every 500 cycles (next at 10500), so
    // a 100-cycle timeout leaves every challenge unanswered.
    const SweepResult cut_short = fleet.attestation_sweep_wire(100);
    EXPECT_EQ(cut_short.trusted, 0u);
    // The late quotes go out during this run; the operator endpoint
    // drains them with the telemetry, so the next sweep reads only the
    // answer to its own challenge.
    fleet.run(2000);
    const SweepResult sweep = fleet.attestation_sweep_wire();
    EXPECT_EQ(sweep.trusted, fleet.size());
    EXPECT_EQ(sweep.flagged, 0u);
}

TEST(Fleet, DevicesAreIndependent) {
    Fleet fleet(small_fleet(true));
    attack::TaskHangAttack attack;
    attack.launch(fleet.device(0), 5000);
    fleet.run(30000);
    // Device 0 had an incident; the rest ran clean.
    const auto decisions = [&fleet](std::size_t i) {
        return core::generate_incident_report(fleet.device(i).ssm->evidence(),
                                              "")
            .decisions;
    };
    EXPECT_GT(decisions(0), 0u);
    for (std::size_t i = 1; i < fleet.size(); ++i) {
        EXPECT_EQ(decisions(i), 0u) << i;
    }
}

// --- Campaign correlation: fleet-level detection, device-level silence ------
// The acceptance bar for the correlation tier: each campaign class on
// a 64-device estate raises a fleet-level incident while NO single
// device's SSM opens one — the campaigns are paced to stay below every
// per-device threshold by construction.

FleetConfig estate(std::size_t devices, std::uint64_t seed) {
    FleetConfig config;
    config.device_count = devices;
    config.resilient = true;
    config.seed = seed;
    config.worker_threads = 0;  // Hardware concurrency; determinism has
                                // its own differential suite.
    return config;
}

std::size_t kind_count(const std::string& jsonl, const std::string& kind) {
    const std::string needle = "\"kind\":\"" + kind + "\"";
    std::size_t count = 0;
    for (std::size_t pos = jsonl.find(needle); pos != std::string::npos;
         pos = jsonl.find(needle, pos + needle.size())) {
        ++count;
    }
    return count;
}

/// No device-local incident anywhere: the stream carries no
/// incident-open records and every SSM still reports healthy.
void expect_no_device_incidents(Fleet& fleet) {
    EXPECT_EQ(kind_count(fleet.siem_stream().jsonl(), "incident-open"), 0u);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        ASSERT_NE(fleet.device(i).ssm, nullptr);
        EXPECT_EQ(fleet.device(i).ssm->health(), core::HealthState::kHealthy)
            << "device " << i;
    }
    const auto snapshot = fleet.collect_metrics();
    const auto* incidents =
        snapshot.find_counter("cres_csf_incidents_total");
    if (incidents != nullptr) {
        EXPECT_EQ(incidents->value(), 0u);
    }
}

TEST(FleetCampaign, WormPropagationDetectedWithoutDeviceIncidents) {
    Fleet fleet(estate(64, 23));
    attack::WormCampaign worm;
    worm.launch(fleet);
    EXPECT_EQ(worm.infections(), 64u);  // Fanout 2 reaches the estate.

    fleet.run(20000);
    fleet.drain_siem();

    const auto& campaigns = fleet.campaign_monitor().campaigns();
    ASSERT_FALSE(campaigns.empty());
    const CampaignIncident& incident = campaigns.front();
    EXPECT_EQ(incident.kind, CampaignKind::kWorm);
    EXPECT_GE(incident.device_total, 8u);  // worm_min_devices.
    EXPECT_GE(incident.detected_at, incident.first_at);
    EXPECT_FALSE(incident.devices.empty());
    EXPECT_TRUE(std::is_sorted(incident.devices.begin(),
                               incident.devices.end()));

    EXPECT_EQ(kind_count(fleet.siem_stream().jsonl(), "campaign"), 1u);
    expect_no_device_incidents(fleet);
}

TEST(FleetCampaign, TracedWormReconstructsExactInfectionDag) {
    // The provenance acceptance bar: on a traced 64-device estate the
    // reconstructed DAG names the true patient zero and the exact
    // infection edges — ground truth comes from the attack driver.
    Fleet fleet(estate(64, 23));
    attack::WormCampaign worm;
    worm.launch(fleet);
    EXPECT_EQ(worm.infections(), 64u);

    fleet.run(20000);
    fleet.drain_siem();

    const ProvenanceReport& report = fleet.campaign_monitor().provenance();
    EXPECT_TRUE(report.traced);
    EXPECT_TRUE(report.exact);  // Every worm edge carried a context.
    EXPECT_EQ(report.patient_zero,
              static_cast<std::uint32_t>(worm.patient_zero()));
    EXPECT_EQ(report.max_hop, worm.max_depth());

    // Edge-exact: one reconstructed edge per victim, matching the
    // driver's schedule (compare sorted by child — each victim is
    // infected exactly once in both views).
    ASSERT_EQ(report.edges.size(), worm.edges().size());
    auto got = report.edges;
    auto want = worm.edges();
    const auto by_child = [](const auto& x, const auto& y) {
        return x.child < y.child;
    };
    std::sort(got.begin(), got.end(), by_child);
    std::sort(want.begin(), want.end(), by_child);
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].parent, want[i].parent) << "edge " << i;
        EXPECT_EQ(got[i].child, want[i].child) << "edge " << i;
        EXPECT_EQ(got[i].hop, want[i].hop) << "edge " << i;
    }

    // The campaign SIEM record names patient zero and renders the
    // propagation tree...
    const std::string& jsonl = fleet.siem_stream().jsonl();
    EXPECT_NE(jsonl.find("patient zero device 0 (depth 6, exact)"),
              std::string::npos);
    EXPECT_NE(jsonl.find("; tree 0->1,0->2,1->3"), std::string::npos);
    // ...worm advisories carry the propagated trace objects...
    EXPECT_NE(jsonl.find("\"trace\":{\"origin\":0,\"hop\":1"),
              std::string::npos);
    // ...and the sealed campaign postmortem embeds the DAG.
    const auto sealed = fleet.sealed_campaign_postmortems();
    ASSERT_FALSE(sealed.empty());
    EXPECT_NE(sealed[0].find("\"provenance\": {\"traced\": true, "
                             "\"exact\": true, \"patient_zero\": 0"),
              std::string::npos);
    EXPECT_TRUE(obs::verify_postmortem(sealed[0], fleet.siem_key()));

    // The hop-depth histogram counts one sample per reconstructed edge.
    const auto snapshot = fleet.collect_metrics();
    const auto* depth =
        snapshot.find_histogram("cres_fleet_infection_depth");
    ASSERT_NE(depth, nullptr);
    EXPECT_EQ(depth->count(), report.edges.size());
    EXPECT_EQ(depth->max(), worm.max_depth());
}

TEST(FleetCampaign, UntracedEstateFallsBackToUnionFind) {
    // causal_tracing off: v1 frames on the wire, no trace bytes in the
    // export, no DAG — but the union-find correlation still detects
    // the campaign.
    FleetConfig config = estate(64, 23);
    config.causal_tracing = false;
    Fleet fleet(config);
    attack::WormCampaign worm;
    worm.launch(fleet);

    fleet.run(20000);
    fleet.drain_siem();

    const ProvenanceReport& report = fleet.campaign_monitor().provenance();
    EXPECT_FALSE(report.traced);
    EXPECT_FALSE(report.exact);
    EXPECT_TRUE(report.edges.empty());
    EXPECT_TRUE(fleet.campaign_monitor().propagation_tree().empty());

    ASSERT_FALSE(fleet.campaign_monitor().campaigns().empty());
    EXPECT_EQ(fleet.campaign_monitor().campaigns().front().kind,
              CampaignKind::kWorm);
    const std::string& jsonl = fleet.siem_stream().jsonl();
    EXPECT_EQ(jsonl.find("\"trace\""), std::string::npos);
    EXPECT_EQ(jsonl.find("patient zero"), std::string::npos);
    // The sealed campaign bundle has no provenance section either.
    const auto sealed = fleet.sealed_campaign_postmortems();
    ASSERT_FALSE(sealed.empty());
    EXPECT_EQ(sealed[0].find("\"provenance\""), std::string::npos);
    EXPECT_TRUE(obs::verify_postmortem(sealed[0], fleet.siem_key()));
}

TEST(FleetSiem, ZeroCapacityBuffersPublishNothingAndCountNothing) {
    // siem_buffer_capacity 0 disables the export layer per node: a
    // campaign runs, nothing stages, the drain appends nothing — and
    // the header-only stream still verifies offline.
    FleetConfig config = estate(8, 43);
    config.siem_buffer_capacity = 0;
    Fleet fleet(config);
    attack::WormCampaign worm;
    worm.launch(fleet);
    fleet.run(20000);

    EXPECT_EQ(fleet.drain_siem(), 0u);
    const std::string& jsonl = fleet.siem_stream().jsonl();
    const obs::SiemVerifyResult verdict =
        obs::SiemStream::verify(jsonl, fleet.siem_key());
    EXPECT_TRUE(verdict.ok) << verdict.reason;
    EXPECT_EQ(verdict.records, 0u);
    // Disabled buffers surface no drop-accounting records (there is no
    // staging layer to account for) and feed no correlation.
    EXPECT_EQ(kind_count(jsonl, "state"), 0u);
    EXPECT_TRUE(fleet.campaign_monitor().campaigns().empty());
}

TEST(FleetSiem, EmptyFleetDrainYieldsVerifiableHeaderOnlyStream) {
    Fleet fleet(estate(0, 47));
    EXPECT_EQ(fleet.size(), 0u);
    EXPECT_EQ(fleet.drain_siem(), 0u);
    const std::string& jsonl = fleet.siem_stream().jsonl();
    EXPECT_EQ(jsonl, std::string(obs::SiemStream::header()) + "\n");
    const obs::SiemVerifyResult verdict =
        obs::SiemStream::verify(jsonl, fleet.siem_key());
    EXPECT_TRUE(verdict.ok) << verdict.reason;
    EXPECT_EQ(verdict.records, 0u);
}

TEST(FleetSiem, OverflowBetweenDrainsSurfacesDropAccounting) {
    // A 1-slot staging buffer under campaign load must drop — and the
    // drain surfaces the loss as an explicit record instead of a
    // silent gap.
    FleetConfig config = estate(64, 23);
    config.siem_buffer_capacity = 1;
    Fleet fleet(config);
    attack::WormCampaign worm;
    attack::CoordinatedReplayCampaign replay;
    worm.launch(fleet);
    replay.launch(fleet);  // Second record per device overflows the slot.
    fleet.run(60000);
    fleet.drain_siem();

    const std::string& jsonl = fleet.siem_stream().jsonl();
    EXPECT_NE(jsonl.find("\"source\":\"siem-buffer\""), std::string::npos);
    EXPECT_NE(jsonl.find("dropped records since last drain"),
              std::string::npos);
    EXPECT_TRUE(obs::SiemStream::verify(jsonl, fleet.siem_key()).ok);
    // A second drain with no new overflow adds no new drop records.
    const std::size_t drop_records = kind_count(jsonl, "state");
    fleet.drain_siem();
    EXPECT_EQ(kind_count(fleet.siem_stream().jsonl(), "state"),
              drop_records);
}

TEST(FleetCampaign, CoordinatedReplayDetectedWithoutDeviceIncidents) {
    Fleet fleet(estate(64, 29));
    attack::CoordinatedReplayCampaign replay;
    replay.launch(fleet);

    fleet.run(50000);
    fleet.drain_siem();
    EXPECT_GE(replay.replayed_devices(), 8u);

    const auto& campaigns = fleet.campaign_monitor().campaigns();
    ASSERT_FALSE(campaigns.empty());
    const CampaignIncident& incident = campaigns.front();
    EXPECT_EQ(incident.kind, CampaignKind::kCoordinatedReplay);
    EXPECT_EQ(incident.fingerprint, 2u);  // The replayed sequence number.
    EXPECT_GE(incident.device_total, 8u);
    expect_no_device_incidents(fleet);
}

TEST(FleetCampaign, StaggeredDowngradeDetectedWithoutDeviceIncidents) {
    Fleet fleet(estate(64, 31));
    attack::StaggeredDowngradeCampaign downgrade;
    downgrade.launch(fleet);
    EXPECT_EQ(downgrade.installs_scheduled(), 64u);

    // Eight waves at 900-cycle stagger cross the bar around cycle 8300;
    // later installs stay scheduled but are irrelevant to detection.
    fleet.run(12000);
    fleet.drain_siem();

    const auto& campaigns = fleet.campaign_monitor().campaigns();
    ASSERT_FALSE(campaigns.empty());
    const CampaignIncident& incident = campaigns.front();
    EXPECT_EQ(incident.kind, CampaignKind::kStaggeredDowngrade);
    EXPECT_EQ(incident.fingerprint, 1u);  // The offered (stale) version.
    EXPECT_GE(incident.device_total, 8u);
    expect_no_device_incidents(fleet);
}

// The replay and downgrade correlators share one windowed track but
// keep their own windows: eight sightings spread over 87.5k cycles
// make a downgrade campaign (200k window) and no replay campaign (60k
// window: the oldest sightings expire before the eighth arrives).
TEST(FleetCampaign, WindowedCorrelatorsKeepTheirOwnWindows) {
    obs::MetricsRegistry registry;
    obs::FlightRecorder recorder(64);
    FleetMonitor monitor(16, registry, recorder);
    for (std::uint32_t device = 0; device < 8; ++device) {
        obs::SiemEvent replay;
        replay.at = device * 12500;
        replay.source = "network-monitor";
        replay.detail = "replayed frame detected";
        replay.a = 2;
        monitor.observe(device, replay);

        obs::SiemEvent downgrade;
        downgrade.at = device * 12500;
        downgrade.source = "update-agent";
        downgrade.detail = "rejected install (version-regression)";
        downgrade.a = 1;
        downgrade.b = 5;
        monitor.observe(device, downgrade);
    }

    ASSERT_EQ(monitor.campaigns().size(), 1u);
    const CampaignIncident& incident = monitor.campaigns().front();
    EXPECT_EQ(incident.kind, CampaignKind::kStaggeredDowngrade);
    EXPECT_EQ(incident.first_at, 0u);
    EXPECT_EQ(incident.detected_at, 87500u);
    EXPECT_EQ(incident.device_total, 8u);
    EXPECT_EQ(incident.detail,
              "staggered downgrade: version 1 pushed to 8 devices against "
              "floor 5");
}

TEST(FleetCampaign, CombinedEstateExportsVerifiableEvidence) {
    Fleet fleet(estate(64, 37));
    attack::WormCampaign worm;
    attack::CoordinatedReplayCampaign replay;
    attack::StaggeredDowngradeCampaign downgrade;
    worm.launch(fleet);
    replay.launch(fleet);
    downgrade.launch(fleet);

    fleet.run(60000);
    fleet.drain_siem();

    // All three campaign classes present.
    bool seen[kCampaignKindCount] = {};
    for (const auto& c : fleet.campaign_monitor().campaigns()) {
        seen[static_cast<std::size_t>(c.kind)] = true;
    }
    EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
    expect_no_device_incidents(fleet);

    // The export chain verifies offline with only the key + JSONL...
    const std::string& jsonl = fleet.siem_stream().jsonl();
    const obs::SiemVerifyResult verdict =
        obs::SiemStream::verify(jsonl, fleet.siem_key());
    EXPECT_TRUE(verdict.ok) << verdict.reason;
    EXPECT_EQ(verdict.records, fleet.siem_stream().records());
    // ...every device anchored its evidence head in the drain...
    EXPECT_EQ(kind_count(jsonl, "evidence-head"), 64u);
    // ...and a 1-byte flip anywhere breaks it.
    std::string tampered = jsonl;
    tampered[tampered.size() / 3] ^= 0x01;
    EXPECT_FALSE(obs::SiemStream::verify(tampered, fleet.siem_key()).ok);

    // Campaign postmortems are sealed under the export key.
    const auto sealed = fleet.sealed_campaign_postmortems();
    ASSERT_EQ(sealed.size(), fleet.campaign_monitor().campaigns().size());
    for (const std::string& bundle : sealed) {
        EXPECT_TRUE(obs::verify_postmortem(bundle, fleet.siem_key()));
        std::string flipped = bundle;
        flipped[flipped.size() / 2] ^= 0x01;
        EXPECT_FALSE(obs::verify_postmortem(flipped, fleet.siem_key()));
    }

    // Fleet-tier series land in the merged snapshot and the trace.
    const auto snapshot = fleet.collect_metrics();
    const std::string prometheus = snapshot.prometheus();
    EXPECT_NE(prometheus.find("cres_fleet_campaigns_total"),
              std::string::npos);
    EXPECT_NE(prometheus.find("cres_fleet_campaign_detection_latency"),
              std::string::npos);
    EXPECT_NE(fleet.chrome_trace().find("campaign"), std::string::npos);
}

TEST(FleetCampaign, MergeSkippedCounterTracksUnboundRegistries) {
    // Metrics off: every per-device registry is empty, and the merge
    // says so instead of silently producing a hollow snapshot.
    FleetConfig dark = estate(4, 41);
    dark.metrics = false;
    Fleet dark_fleet(dark);
    dark_fleet.run(5000);
    const auto dark_snapshot = dark_fleet.collect_metrics();
    const auto* skipped =
        dark_snapshot.find_counter("cres_fleet_merge_skipped_total");
    ASSERT_NE(skipped, nullptr);
    EXPECT_EQ(skipped->value(), 4u);

    Fleet lit_fleet(estate(4, 41));
    lit_fleet.run(5000);
    const auto lit_snapshot = lit_fleet.collect_metrics();
    const auto* none =
        lit_snapshot.find_counter("cres_fleet_merge_skipped_total");
    ASSERT_NE(none, nullptr);
    EXPECT_EQ(none->value(), 0u);
}

}  // namespace
}  // namespace cres::platform
