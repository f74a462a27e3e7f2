// Microbenchmarks (google-benchmark): throughput of the substrate
// primitives every experiment rests on — hashing, HMAC, hash-based
// signatures, evidence appends, bus transactions and raw CPU emulation
// speed.
//
// Before the google-benchmark suite runs, main() takes a self-timed
// pass over the crypto hot path and writes BENCH_crypto.json (path
// overridable via CRES_BENCH_JSON) so CI can archive and diff the
// numbers across commits.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>

#include "bench_util.h"
#include "core/ssm/evidence.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/wots.h"
#include "isa/assembler.h"
#include "isa/cpu.h"
#include "mem/ram.h"
#include "util/rng.h"

namespace {

using namespace cres;

void BM_Sha256(benchmark::State& state) {
    Rng rng(1);
    const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::sha256(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_HmacSha256(benchmark::State& state) {
    Rng rng(2);
    const Bytes key = rng.bytes(32);
    const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

void BM_HmacSha256Keyed(benchmark::State& state) {
    Rng rng(2);
    const Bytes key = rng.bytes(32);
    const Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
    const crypto::HmacSha256 keyed(key);
    for (auto _ : state) {
        benchmark::DoNotOptimize(keyed.tag(data));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_HmacSha256Keyed)->Arg(64)->Arg(4096);

void BM_WotsSign(benchmark::State& state) {
    crypto::Hash256 s1, s2;
    s1.fill(1);
    s2.fill(2);
    const crypto::WotsKeyPair kp(s1, s2);
    const Bytes msg = to_bytes("firmware digest");
    for (auto _ : state) {
        benchmark::DoNotOptimize(kp.sign(msg));
    }
}
BENCHMARK(BM_WotsSign);

void BM_WotsVerify(benchmark::State& state) {
    crypto::Hash256 s1, s2;
    s1.fill(1);
    s2.fill(2);
    const crypto::WotsKeyPair kp(s1, s2);
    const Bytes msg = to_bytes("firmware digest");
    const auto sig = kp.sign(msg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            crypto::wots_verify(sig, msg, kp.public_key(), s2));
    }
}
BENCHMARK(BM_WotsVerify);

void BM_MerkleKeygen(benchmark::State& state) {
    crypto::Hash256 seed;
    seed.fill(7);
    const auto height = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        crypto::MerkleSigner signer(seed, height);
        benchmark::DoNotOptimize(signer.public_key());
    }
}
BENCHMARK(BM_MerkleKeygen)->Arg(2)->Arg(4)->Arg(6);

void BM_EvidenceAppend(benchmark::State& state) {
    core::EvidenceLog log(to_bytes("key"));
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        log.append(cycle++, "event", "bus-monitor alert at 0x40005000");
    }
}
BENCHMARK(BM_EvidenceAppend);

void BM_EvidenceVerifyIncremental(benchmark::State& state) {
    core::EvidenceLog log(to_bytes("key"));
    std::uint64_t cycle = 0;
    for (std::uint64_t i = 0; i < 1024; ++i) {
        log.append(cycle++, "event", "seed record");
    }
    (void)log.verify_chain();  // Advance the watermark past the seed.
    for (auto _ : state) {
        log.append(cycle++, "event", "bus-monitor alert at 0x40005000");
        benchmark::DoNotOptimize(log.verify_chain());
        if (log.size() > 64 * 1024) {
            state.PauseTiming();
            log.wipe();
            state.ResumeTiming();
        }
    }
}
BENCHMARK(BM_EvidenceVerifyIncremental);

void BM_EvidenceVerifyFull(benchmark::State& state) {
    core::EvidenceLog log(to_bytes("key"));
    for (std::uint64_t i = 0; i < 1024; ++i) {
        log.append(i, "event", "seed record");
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(log.verify_chain_full());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            1024);
}
BENCHMARK(BM_EvidenceVerifyFull);

void BM_BusTransaction(benchmark::State& state) {
    mem::Bus bus;
    mem::Ram ram("ram", 0x10000);
    bus.map(mem::RegionConfig{"ram", 0, 0x10000, false, false}, ram);
    const mem::BusAttr attr{mem::Master::kCpu, false, true};
    std::uint32_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(bus.read(addr & 0xfffc, 4, attr));
        addr += 4;
    }
}
BENCHMARK(BM_BusTransaction);

void BM_CpuEmulation(benchmark::State& state) {
    mem::Bus bus;
    mem::Ram ram("ram", 0x10000);
    bus.map(mem::RegionConfig{"ram", 0, 0x10000, false, false}, ram);
    isa::Cpu cpu("cpu0", bus);
    const isa::Program p = isa::assemble(R"(
    loop:
        addi r1, r1, 1
        xor  r2, r2, r1
        j loop
    )");
    ram.load(0, p.code);
    cpu.reset(0);
    for (auto _ : state) {
        cpu.step();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CpuEmulation);

// --- Self-timed crypto baseline -> BENCH_crypto.json ---------------------
//
// google-benchmark's JSON output mixes every suite together and changes
// shape across versions; the tracked baseline wants a small, stable,
// flat document. So the crypto hot path is timed here directly.

/// Runs `op` in batches until ~80ms have elapsed; returns ops/second.
template <typename F>
double ops_per_second(F&& op, std::size_t batch) {
    using Clock = std::chrono::steady_clock;
    for (std::size_t i = 0; i < batch; ++i) op();  // Warm-up batch.
    constexpr std::chrono::milliseconds kMinElapsed{80};
    std::size_t total = 0;
    const auto start = Clock::now();
    auto now = start;
    do {
        for (std::size_t i = 0; i < batch; ++i) op();
        total += batch;
        now = Clock::now();
    } while (now - start < kMinElapsed);
    const double secs = std::chrono::duration<double>(now - start).count();
    return static_cast<double>(total) / secs;
}

void write_crypto_baseline() {
    bench::JsonReporter report;
    bench::Table table({"metric", "value", "unit"});
    report.field("schema", "cres-bench-crypto/v1");
    report.field("sha256_backend", crypto::sha256_backend());

    Rng rng(42);
    const Bytes key = rng.bytes(32);

    // SHA-256 throughput across the sizes the system actually hashes:
    // 64B (chain links), 1KiB (reports/frames), 64KiB (firmware images).
    for (const std::size_t size : {std::size_t{64}, std::size_t{1024},
                                   std::size_t{64 * 1024}}) {
        const Bytes data = rng.bytes(size);
        const double ops = ops_per_second(
            [&] { benchmark::DoNotOptimize(crypto::sha256(data)); }, 256);
        const double mb_per_s =
            ops * static_cast<double>(size) / (1000.0 * 1000.0);
        const std::string label = size == 64      ? "sha256_64B"
                                  : size == 1024  ? "sha256_1KiB"
                                                  : "sha256_64KiB";
        report.metric(label + "_mb_per_s", mb_per_s);
        table.row(label, bench::fmt_double(mb_per_s), "MB/s");
    }

    // HMAC 64B tags: cold (re-derives ipad/opad per call) vs keyed
    // (cached midstates). The ratio is the midstate-cache win.
    const Bytes msg = rng.bytes(64);
    const double cold = ops_per_second(
        [&] { benchmark::DoNotOptimize(crypto::hmac_sha256(key, msg)); },
        256);
    const crypto::HmacSha256 keyed(key);
    const double warm = ops_per_second(
        [&] { benchmark::DoNotOptimize(keyed.tag(msg)); }, 256);
    report.metric("hmac_64B_cold_tags_per_s", cold);
    report.metric("hmac_64B_keyed_tags_per_s", warm);
    report.metric("hmac_keyed_speedup", warm / cold);
    table.row("hmac_64B_cold", bench::fmt_double(cold, 0), "tags/s");
    table.row("hmac_64B_keyed", bench::fmt_double(warm, 0), "tags/s");
    table.row("hmac_keyed_speedup", bench::fmt_double(warm / cold), "x");

    // Evidence chain: append throughput, then incremental (watermark)
    // vs full re-verification of a 1024-record log.
    {
        core::EvidenceLog log(key);
        std::uint64_t cycle = 0;
        const double appends = ops_per_second(
            [&] {
                log.append(cycle++, "event", "bus-monitor alert");
                if (log.size() > 64 * 1024) log.wipe();
            },
            512);
        report.metric("evidence_append_ops_per_s", appends);
        table.row("evidence_append", bench::fmt_double(appends, 0), "ops/s");
    }
    {
        core::EvidenceLog log(key);
        std::uint64_t cycle = 0;
        for (int i = 0; i < 1024; ++i) log.append(cycle++, "event", "seed");
        (void)log.verify_chain();
        const double incremental = ops_per_second(
            [&] {
                log.append(cycle++, "event", "fresh");
                benchmark::DoNotOptimize(log.verify_chain());
                if (log.size() > 64 * 1024) {
                    log.wipe();
                    (void)log.verify_chain();
                }
            },
            256);
        const double full = ops_per_second(
            [&] { benchmark::DoNotOptimize(log.verify_chain_full()); }, 8);
        report.metric("evidence_verify_incremental_ops_per_s", incremental);
        report.metric("evidence_verify_full_1024_ops_per_s", full);
        table.row("evidence_verify_incremental",
                  bench::fmt_double(incremental, 0), "append+verify/s");
        table.row("evidence_verify_full_1024", bench::fmt_double(full, 0),
                  "verifies/s");
    }

    // Merkle keygen (height 4 = 16 WOTS leaves): dominated by hashing,
    // so it tracks the Sha256-reuse refactor.
    {
        crypto::Hash256 seed;
        seed.fill(7);
        const double builds = ops_per_second(
            [&] {
                crypto::MerkleSigner signer(seed, 4);
                benchmark::DoNotOptimize(signer.public_key());
            },
            4);
        report.metric("merkle_h4_builds_per_s", builds);
        table.row("merkle_h4_build", bench::fmt_double(builds, 0),
                  "builds/s");
    }

    report.field("table_csv", table.csv());

    bench::section("crypto hot-path baseline");
    table.print();
    const char* path_env = std::getenv("CRES_BENCH_JSON");
    const std::string path = path_env ? path_env : "BENCH_crypto.json";
    if (report.write(path)) {
        std::cout << "\nwrote " << path << "\n\n";
    }
}

}  // namespace

int main(int argc, char** argv) {
    write_crypto_baseline();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
