// Parallel fleet execution: the determinism contract. Same fleet seed
// => bit-identical sweep verdicts, health summaries and evidence logs
// at ANY worker-thread count, because each device-node is owned by one
// worker per phase and all per-device state derives from
// seed ^ device_index. worker_threads=1 is the historical serial path.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attack/attacks.h"
#include "attack/campaigns.h"
#include "platform/fleet.h"
#include "util/thread_pool.h"

namespace cres::platform {
namespace {

FleetConfig fleet_config(std::size_t devices, std::size_t threads,
                         std::uint64_t seed = 97) {
    FleetConfig config;
    config.device_count = devices;
    config.resilient = true;
    config.seed = seed;
    config.worker_threads = threads;
    return config;
}

// --- (a) serial vs parallel: bit-identical fleet state ---------------------

TEST(FleetParallel, SerialAndFourThreadsProduceIdenticalResults) {
    constexpr std::size_t kDevices = 64;
    constexpr sim::Cycle kCycles = 5000;

    Fleet serial(fleet_config(kDevices, 1));
    Fleet parallel(fleet_config(kDevices, 4));
    EXPECT_EQ(serial.worker_threads(), 1u);
    EXPECT_EQ(parallel.worker_threads(), 4u);

    serial.run(kCycles);
    parallel.run(kCycles);

    const SweepResult serial_sweep = serial.attestation_sweep();
    const SweepResult parallel_sweep = parallel.attestation_sweep();
    ASSERT_EQ(serial_sweep.verdicts.size(), kDevices);
    EXPECT_EQ(serial_sweep.verdicts, parallel_sweep.verdicts);
    EXPECT_EQ(serial_sweep.trusted, parallel_sweep.trusted);
    EXPECT_EQ(serial_sweep.flagged, parallel_sweep.flagged);

    const HealthSummary serial_health = serial.collect_health();
    const HealthSummary parallel_health = parallel.collect_health();
    EXPECT_EQ(serial_health.states, parallel_health.states);
    EXPECT_EQ(serial_health.report_valid, parallel_health.report_valid);
    EXPECT_EQ(serial_health.healthy, parallel_health.healthy);

    // Evidence logs are sealed per-device streams; byte-compare a
    // sample across the fleet.
    for (const std::size_t i : {std::size_t{0}, kDevices / 2,
                                kDevices - 1}) {
        ASSERT_NE(serial.device(i).ssm, nullptr);
        EXPECT_EQ(serial.device(i).ssm->evidence().serialize(),
                  parallel.device(i).ssm->evidence().serialize())
            << "device " << i;
    }

    // Service counters follow the same per-device determinism.
    EXPECT_EQ(serial.fleet_iterations(), parallel.fleet_iterations());
}

TEST(FleetParallel, WireSweepIsDeterministicAcrossThreadCounts) {
    constexpr std::size_t kDevices = 16;
    Fleet serial(fleet_config(kDevices, 1));
    Fleet parallel(fleet_config(kDevices, 4));
    serial.run(4000);
    parallel.run(4000);
    const SweepResult a = serial.attestation_sweep_wire();
    const SweepResult b = parallel.attestation_sweep_wire();
    EXPECT_EQ(a.verdicts, b.verdicts);
    EXPECT_EQ(a.trusted, kDevices);
}

// --- (b) compromise localisation is thread-count invariant -----------------

TEST(FleetParallel, CompromisedDeviceFlagsSameIndexAtEveryThreadCount) {
    constexpr std::size_t kDevices = 12;
    constexpr std::size_t kVictim = 7;

    std::vector<std::vector<std::size_t>> flagged_per_run;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}, std::size_t{0}}) {
        Fleet fleet(fleet_config(kDevices, threads));
        fleet.run(3000);
        crypto::Hash256 implant;
        implant.fill(0x66);
        fleet.device(kVictim).pcrs.extend(boot::PcrBank::kPcrFirmware,
                                          implant);
        const SweepResult sweep = fleet.attestation_sweep();
        flagged_per_run.push_back(sweep.flagged_devices());
    }
    for (const auto& flagged : flagged_per_run) {
        EXPECT_EQ(flagged, (std::vector<std::size_t>{kVictim}));
    }
}

TEST(FleetParallel, RuntimeBreachEvidenceIsIdenticalSerialVsParallel) {
    constexpr std::size_t kDevices = 8;
    constexpr std::size_t kVictim = 3;

    auto breach = [](Fleet& fleet) {
        fleet.run(3000);
        fleet.checkpoint_all();
        attack::StackSmashAttack smash;
        smash.launch(fleet.device(kVictim),
                     fleet.device(kVictim).sim.now() + 1000);
        fleet.run(20000);
    };

    Fleet serial(fleet_config(kDevices, 1));
    Fleet parallel(fleet_config(kDevices, 4));
    breach(serial);
    breach(parallel);

    ASSERT_GT(serial.device(kVictim).ssm->evidence().size(), 1u);
    EXPECT_EQ(serial.device(kVictim).ssm->evidence().serialize(),
              parallel.device(kVictim).ssm->evidence().serialize());
    const HealthSummary a = serial.collect_health();
    const HealthSummary b = parallel.collect_health();
    EXPECT_EQ(a.states, b.states);
}

TEST(FleetParallel, MetricsSnapshotIsBitIdenticalAcrossThreadCounts) {
    constexpr std::size_t kDevices = 8;
    constexpr std::size_t kVictim = 2;

    auto run_and_snapshot = [](std::size_t threads) {
        Fleet fleet(fleet_config(kDevices, threads));
        fleet.run(3000);
        fleet.checkpoint_all();
        attack::StackSmashAttack smash;
        smash.launch(fleet.device(kVictim),
                     fleet.device(kVictim).sim.now() + 1000);
        fleet.run(20000);
        return fleet.collect_metrics();
    };

    const obs::MetricsRegistry one = run_and_snapshot(1);
    const obs::MetricsRegistry eight = run_and_snapshot(8);
    ASSERT_GT(one.size(), 0u);
    // Cycle-accurate metrics never touch wall clock, device registries
    // are thread-confined and the fold is index-ordered, so both
    // exposition formats are byte-identical at any worker count.
    EXPECT_EQ(one.prometheus(), eight.prometheus());
    EXPECT_EQ(one.json(), eight.json());
    // And an incident actually happened (the snapshot is not vacuous).
    const auto* incidents = one.find_counter("cres_csf_incidents_total");
    ASSERT_NE(incidents, nullptr);
    EXPECT_GT(incidents->value(), 0u);
}

TEST(FleetParallel, ChromeTraceAndPostmortemsAreBitIdenticalAcrossThreads) {
    constexpr std::size_t kDevices = 8;
    constexpr std::size_t kVictim = 2;

    auto run_fleet = [](std::size_t threads) {
        auto fleet =
            std::make_unique<Fleet>(fleet_config(kDevices, threads));
        fleet->run(3000);
        fleet->checkpoint_all();
        attack::StackSmashAttack smash;
        smash.launch(fleet->device(kVictim),
                     fleet->device(kVictim).sim.now() + 1000);
        fleet->run(20000);
        return fleet;
    };

    const auto one = run_fleet(1);
    const auto eight = run_fleet(8);

    // The fleet trace is an index-ordered reduction over per-device
    // recorders fed only by simulated cycles, so the JSON is
    // byte-identical at any worker count.
    const std::string trace = one->chrome_trace();
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace, eight->chrome_trace());
    // Every device got a process track.
    for (std::size_t i = 0; i < kDevices; ++i) {
        EXPECT_NE(trace.find("device-" + std::to_string(i)),
                  std::string::npos)
            << i;
    }

    // Sealed postmortems (HMAC tags included) match byte for byte.
    const auto pm_one = one->sealed_postmortems();
    const auto pm_eight = eight->sealed_postmortems();
    ASSERT_FALSE(pm_one.empty());  // The breach closed an incident.
    EXPECT_EQ(pm_one, pm_eight);
}

// --- (c) quiescence fast-forward: differential determinism ------------------
// The scheduler contract (docs/SCHEDULER.md): fast-forwarding over
// provably idle cycles is a speed knob, never a semantics knob. The
// same scenario per-cycle, quiescence-skipped, and quiescence-skipped
// on 8 workers must produce byte-identical artefacts.

FleetConfig estate_config(std::size_t devices, std::size_t threads,
                          bool quiescence, bool interrupt_workload,
                          std::uint64_t seed = 98) {
    FleetConfig config;
    config.device_count = devices;
    config.resilient = true;
    config.seed = seed;
    config.worker_threads = threads;
    config.quiescence = quiescence;
    config.interrupt_workload = interrupt_workload;
    return config;
}

/// Per-device architectural counters, index-ordered: retired
/// instructions, cycle CSRs, service iterations, sensor samples.
std::vector<std::uint64_t> device_counters(Fleet& fleet) {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        Node& node = fleet.device(i);
        out.push_back(node.sim.now());
        out.push_back(node.cpu.csr(isa::kCsrMcycle));
        out.push_back(node.cpu.csr(isa::kCsrMinstret));
        out.push_back(node.stats().control_iterations);
        out.push_back(node.sensor.samples());
    }
    return out;
}

TEST(FleetQuiescence, InterruptEstateFastForwardMatchesPerCycle) {
    constexpr std::size_t kDevices = 12;
    constexpr sim::Cycle kCycles = 30000;

    Fleet percycle(estate_config(kDevices, 1, false, true));
    Fleet skipped(estate_config(kDevices, 1, true, true));
    percycle.run(kCycles);
    skipped.run(kCycles);

    // The WFI estate actually fast-forwarded (the test is not vacuous).
    EXPECT_EQ(percycle.fleet_cycles_skipped(), 0u);
    EXPECT_GT(skipped.fleet_cycles_skipped(), 0u);

    EXPECT_EQ(device_counters(percycle), device_counters(skipped));
    EXPECT_EQ(percycle.fleet_iterations(), skipped.fleet_iterations());

    const SweepResult sweep_a = percycle.attestation_sweep();
    const SweepResult sweep_b = skipped.attestation_sweep();
    EXPECT_EQ(sweep_a.verdicts, sweep_b.verdicts);

    const HealthSummary health_a = percycle.collect_health();
    const HealthSummary health_b = skipped.collect_health();
    EXPECT_EQ(health_a.states, health_b.states);
    EXPECT_EQ(health_a.report_valid, health_b.report_valid);

    // Metrics snapshots — poll counters, gap histograms, queue-depth
    // series included — are byte-identical: skip() replays every
    // elided observation effect exactly.
    EXPECT_EQ(percycle.collect_metrics().prometheus(),
              skipped.collect_metrics().prometheus());
    EXPECT_EQ(percycle.collect_metrics().json(),
              skipped.collect_metrics().json());
    EXPECT_EQ(percycle.chrome_trace(), skipped.chrome_trace());

    for (const std::size_t i :
         {std::size_t{0}, kDevices / 2, kDevices - 1}) {
        EXPECT_EQ(percycle.device(i).ssm->evidence().serialize(),
                  skipped.device(i).ssm->evidence().serialize())
            << "device " << i;
    }
}

TEST(FleetQuiescence, BusyEstateFastForwardIsExactToo) {
    // The busy-wait workload keeps cores active, so there is little to
    // skip; instead each CPU runs alone in bursts between the other
    // components' wakes. Everything observable must still be exact,
    // including the forensics of a breach on one device.
    constexpr std::size_t kDevices = 8;
    constexpr std::size_t kVictim = 6;
    auto run = [](Fleet& fleet) {
        fleet.run(3000);
        fleet.checkpoint_all();
        attack::StackSmashAttack smash;
        smash.launch(fleet.device(kVictim),
                     fleet.device(kVictim).sim.now() + 1000);
        fleet.run(12000);
    };
    Fleet percycle(estate_config(kDevices, 1, false, false));
    Fleet skipped(estate_config(kDevices, 1, true, false));
    run(percycle);
    run(skipped);

    // Bursts cover at least 90% of every busy node's cycles, so the
    // comparison below exercises them.
    for (std::size_t i = 0; i < kDevices; ++i) {
        const sim::Simulator& sim = skipped.device(i).sim;
        EXPECT_GE(sim.cycles_burst() * 10, sim.now() * 9) << "device " << i;
        EXPECT_EQ(percycle.device(i).sim.cycles_burst(), 0u);
    }
    ASSERT_GT(percycle.device(kVictim).ssm->evidence().size(), 1u);

    EXPECT_EQ(device_counters(percycle), device_counters(skipped));
    EXPECT_EQ(percycle.collect_metrics().prometheus(),
              skipped.collect_metrics().prometheus());
    EXPECT_EQ(percycle.chrome_trace(), skipped.chrome_trace());
    for (std::size_t i = 0; i < kDevices; ++i) {
        EXPECT_EQ(percycle.device(i).ssm->evidence().serialize(),
                  skipped.device(i).ssm->evidence().serialize())
            << "device " << i;
    }
    EXPECT_EQ(percycle.sealed_postmortems(), skipped.sealed_postmortems());

    percycle.drain_siem();
    skipped.drain_siem();
    ASSERT_GT(percycle.siem_stream().records(), 0u);
    EXPECT_EQ(percycle.siem_stream().jsonl(), skipped.siem_stream().jsonl());
    EXPECT_EQ(percycle.siem_stream().syslog(),
              skipped.siem_stream().syslog());
    EXPECT_EQ(percycle.siem_stream().head_hex(),
              skipped.siem_stream().head_hex());
}

TEST(FleetQuiescence, EightWorkerSkippedRunMatchesSerialPerCycle) {
    constexpr std::size_t kDevices = 16;
    constexpr sim::Cycle kCycles = 25000;

    Fleet reference(estate_config(kDevices, 1, false, true));
    Fleet fast(estate_config(kDevices, 8, true, true));
    reference.run(kCycles);
    fast.run(kCycles);

    EXPECT_GT(fast.fleet_cycles_skipped(), 0u);
    EXPECT_EQ(device_counters(reference), device_counters(fast));
    EXPECT_EQ(reference.attestation_sweep().verdicts,
              fast.attestation_sweep().verdicts);
    EXPECT_EQ(reference.collect_metrics().prometheus(),
              fast.collect_metrics().prometheus());
    EXPECT_EQ(reference.chrome_trace(), fast.chrome_trace());
    for (const std::size_t i :
         {std::size_t{0}, kDevices / 2, kDevices - 1}) {
        EXPECT_EQ(reference.device(i).ssm->evidence().serialize(),
                  fast.device(i).ssm->evidence().serialize())
            << "device " << i;
    }
}

TEST(FleetQuiescence, BreachUnderFastForwardYieldsIdenticalForensics) {
    constexpr std::size_t kDevices = 8;
    constexpr std::size_t kVictim = 5;

    auto breach = [](Fleet& fleet) {
        fleet.run(3000);
        fleet.checkpoint_all();
        attack::StackSmashAttack smash;
        smash.launch(fleet.device(kVictim),
                     fleet.device(kVictim).sim.now() + 1000);
        fleet.run(20000);
    };

    Fleet percycle(estate_config(kDevices, 1, false, false));
    Fleet skipped(estate_config(kDevices, 1, true, false));
    breach(percycle);
    breach(skipped);

    ASSERT_GT(percycle.device(kVictim).ssm->evidence().size(), 1u);
    EXPECT_EQ(percycle.device(kVictim).ssm->evidence().serialize(),
              skipped.device(kVictim).ssm->evidence().serialize());
    EXPECT_EQ(percycle.sealed_postmortems(), skipped.sealed_postmortems());
    const HealthSummary a = percycle.collect_health();
    const HealthSummary b = skipped.collect_health();
    EXPECT_EQ(a.states, b.states);
}

// --- (d) fleet-shared firmware bytes ----------------------------------------

TEST(FleetFirmware, SharedFirmwareIsDeduplicatedAndBitExact) {
    constexpr std::size_t kDevices = 16;

    FleetConfig shared_cfg = estate_config(kDevices, 1, true, false);
    FleetConfig private_cfg = shared_cfg;
    private_cfg.share_firmware = false;

    Fleet shared(shared_cfg);
    Fleet priv(private_cfg);
    shared.run(8000);
    priv.run(8000);

    // One store entry serves the whole estate.
    EXPECT_EQ(shared.firmware_store().size(), 1u);
    EXPECT_EQ(shared.firmware_store().misses(), 1u);
    EXPECT_EQ(shared.firmware_store().hits(), kDevices - 1);
    EXPECT_EQ(priv.firmware_store().size(), 0u);

    // Sharing strictly shrinks private residency (the code pages), and
    // changes nothing observable.
    EXPECT_LT(shared.fleet_resident_ram_bytes(),
              priv.fleet_resident_ram_bytes());
    EXPECT_EQ(device_counters(shared), device_counters(priv));
    EXPECT_EQ(shared.attestation_sweep().verdicts,
              priv.attestation_sweep().verdicts);
    EXPECT_EQ(shared.collect_metrics().prometheus(),
              priv.collect_metrics().prometheus());
}

// --- (e) SIEM export & campaign determinism ---------------------------------
// The export stream is a serial device-index-ordered reduction and the
// correlation engine consumes it record by record, so the JSONL bytes,
// the syslog bytes, the chain head and every campaign verdict must be
// bit-identical at any worker count and under quiescence fast-forward
// — including with a mid-campaign single-device breach in the mix.

struct SiemArtifacts {
    std::string jsonl;
    std::string syslog;
    std::string head;
    std::string chrome;      ///< Fleet Chrome trace incl. flow events.
    std::string provenance;  ///< Reconstructed infection DAG (JSON).
    std::vector<std::string> campaign_postmortems;
    std::vector<std::pair<CampaignKind, std::uint64_t>> verdicts;
};

SiemArtifacts run_campaign_estate(std::size_t threads, bool quiescence,
                                  bool breach) {
    constexpr std::size_t kDevices = 24;
    // The breach variant uses the busy-wait workload: the stack-smash
    // attack targets its saved-lr slot (the WFI estate has no
    // smashable call frame). The clean variants use the WFI estate so
    // quiescence fast-forward actually elides cycles.
    Fleet fleet(estate_config(kDevices, threads, quiescence,
                              /*interrupt_workload=*/!breach, 99));

    // All three campaign classes, scheduled up front (their steps live
    // on per-device simulators, so launching is worker-count neutral).
    attack::WormCampaign worm;
    attack::CoordinatedReplayCampaign replay;
    attack::StaggeredDowngradeCampaign downgrade;
    worm.launch(fleet);
    replay.launch(fleet);
    downgrade.launch(fleet);

    attack::StackSmashAttack smash;  // Outlives its scheduled events.
    fleet.run(3000);
    fleet.checkpoint_all();
    if (breach) {
        smash.launch(fleet.device(5), fleet.device(5).sim.now() + 1000);
    }
    fleet.run(27000);
    fleet.drain_siem();  // Mid-campaign drain: replay wave still pending.
    fleet.run(30000);
    fleet.drain_siem();

    SiemArtifacts out;
    out.jsonl = fleet.siem_stream().jsonl();
    out.syslog = fleet.siem_stream().syslog();
    out.head = fleet.siem_stream().head_hex();
    out.chrome = fleet.chrome_trace();
    out.provenance = fleet.campaign_monitor().provenance_json();
    out.campaign_postmortems = fleet.sealed_campaign_postmortems();
    for (const CampaignIncident& c : fleet.campaign_monitor().campaigns()) {
        out.verdicts.emplace_back(c.kind, c.detected_at);
    }
    return out;
}

TEST(FleetSiem, ExportAndVerdictsBitIdenticalAcrossThreadCounts) {
    const SiemArtifacts one = run_campaign_estate(1, true, false);
    const SiemArtifacts eight = run_campaign_estate(8, true, false);

    // Non-vacuous: every campaign class was actually detected, the
    // export carries propagated traces, and the Chrome trace carries
    // flow events.
    ASSERT_EQ(one.verdicts.size(), 3u);
    ASSERT_NE(one.jsonl.find("\"trace\":{"), std::string::npos);
    ASSERT_NE(one.chrome.find("\"ph\":\"s\""), std::string::npos);
    ASSERT_NE(one.chrome.find("\"ph\":\"t\""), std::string::npos);
    ASSERT_NE(one.provenance.find("\"exact\": true"), std::string::npos);
    EXPECT_EQ(one.jsonl, eight.jsonl);
    EXPECT_EQ(one.syslog, eight.syslog);
    EXPECT_EQ(one.head, eight.head);
    EXPECT_EQ(one.chrome, eight.chrome);
    EXPECT_EQ(one.provenance, eight.provenance);
    EXPECT_EQ(one.verdicts, eight.verdicts);
    EXPECT_EQ(one.campaign_postmortems, eight.campaign_postmortems);
}

TEST(FleetSiem, QuiescenceFastForwardLeavesExportByteIdentical) {
    const SiemArtifacts percycle = run_campaign_estate(1, false, false);
    const SiemArtifacts skipped = run_campaign_estate(1, true, false);
    ASSERT_EQ(percycle.verdicts.size(), 3u);
    EXPECT_EQ(percycle.jsonl, skipped.jsonl);
    EXPECT_EQ(percycle.syslog, skipped.syslog);
    EXPECT_EQ(percycle.head, skipped.head);
    EXPECT_EQ(percycle.chrome, skipped.chrome);
    EXPECT_EQ(percycle.provenance, skipped.provenance);
    EXPECT_EQ(percycle.verdicts, skipped.verdicts);
    EXPECT_EQ(percycle.campaign_postmortems, skipped.campaign_postmortems);
}

TEST(FleetSiem, MidCampaignBreachStaysDeterministic) {
    // A single-device incident (stack smash on device 5) interleaved
    // with all three fleet campaigns: the stream now carries incident
    // spans AND campaign records, and must still be byte-stable across
    // worker counts and fast-forward.
    const SiemArtifacts reference = run_campaign_estate(1, false, true);
    const SiemArtifacts fast = run_campaign_estate(8, true, true);
    ASSERT_EQ(reference.verdicts.size(), 3u);
    EXPECT_NE(reference.jsonl.find("incident-open"), std::string::npos);
    EXPECT_EQ(reference.jsonl, fast.jsonl);
    EXPECT_EQ(reference.syslog, fast.syslog);
    EXPECT_EQ(reference.head, fast.head);
    EXPECT_EQ(reference.chrome, fast.chrome);
    EXPECT_EQ(reference.provenance, fast.provenance);
    EXPECT_EQ(reference.verdicts, fast.verdicts);
    EXPECT_EQ(reference.campaign_postmortems, fast.campaign_postmortems);
}

// --- (f) worker_threads resolution -----------------------------------------

TEST(FleetParallel, ZeroWorkerThreadsResolvesToHardwareConcurrency) {
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t expected = hw == 0 ? 1 : hw;
    EXPECT_EQ(ThreadPool::resolve_thread_count(0), expected);

    Fleet fleet(fleet_config(2, 0));
    EXPECT_EQ(fleet.worker_threads(), expected);
}

// --- ThreadPool primitive ---------------------------------------------------

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallel_for(kCount, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
    }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossPhases) {
    ThreadPool pool(3);
    std::vector<std::atomic<std::uint64_t>> slot(64);
    for (int phase = 0; phase < 10; ++phase) {
        pool.parallel_for(slot.size(), [&](std::size_t i) {
            slot[i].fetch_add(i, std::memory_order_relaxed);
        });
    }
    std::uint64_t total = 0;
    for (const auto& s : slot) total += s.load();
    EXPECT_EQ(total, 10u * (63u * 64u / 2u));
}

TEST(ThreadPoolTest, SingleThreadRunsInlineInOrder) {
    ThreadPool pool(1);
    EXPECT_EQ(pool.thread_count(), 1u);
    std::vector<std::size_t> order;
    pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
    std::vector<std::size_t> expected(16);
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(order, expected);  // Inline serial loop: strict order.
}

TEST(ThreadPoolTest, ZeroCountIsANoOp) {
    ThreadPool pool(2);
    bool ran = false;
    pool.parallel_for(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallel_for(100,
                          [](std::size_t i) {
                              if (i == 37) {
                                  throw std::runtime_error("device 37");
                              }
                          }),
        std::runtime_error);
    // The pool survives a throwing sweep and stays usable.
    std::atomic<std::size_t> ok{0};
    pool.parallel_for(50, [&](std::size_t) {
        ok.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ok.load(), 50u);
}

}  // namespace
}  // namespace cres::platform
