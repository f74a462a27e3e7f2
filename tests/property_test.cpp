// Property-based tests: randomized sweeps over invariants that must
// hold for *any* input — encoding round-trips, CPU arithmetic vs a
// host-side reference, evidence-chain integrity under random operation
// sequences, serialization round-trips, and crypto self-consistency.
#include <gtest/gtest.h>

#include "core/ssm/evidence.h"
#include "crypto/hmac.h"
#include "isa/assembler.h"
#include "isa/cpu.h"
#include "mem/ram.h"
#include "util/rng.h"
#include "util/serial.h"

namespace cres {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

// ---- ISA encoding ---------------------------------------------------------

TEST_P(SeededProperty, EncodingRoundTripsAllFields) {
    Rng rng(GetParam());
    for (int i = 0; i < 500; ++i) {
        isa::Instruction insn;
        insn.opcode = isa::Opcode::kAddi;  // Any imm-style opcode.
        insn.rd = static_cast<std::uint8_t>(rng.uniform(16));
        insn.rs1 = static_cast<std::uint8_t>(rng.uniform(16));
        insn.imm = static_cast<std::uint16_t>(rng.uniform(0x10000));
        const isa::Instruction back = isa::decode(isa::encode(insn));
        EXPECT_EQ(back.rd, insn.rd);
        EXPECT_EQ(back.rs1, insn.rs1);
        EXPECT_EQ(back.imm, insn.imm);

        isa::Instruction alu;
        alu.opcode = isa::Opcode::kXor;
        alu.rd = static_cast<std::uint8_t>(rng.uniform(16));
        alu.rs1 = static_cast<std::uint8_t>(rng.uniform(16));
        alu.rs2 = static_cast<std::uint8_t>(rng.uniform(16));
        const isa::Instruction alu_back = isa::decode(isa::encode(alu));
        EXPECT_EQ(alu_back.rs2, alu.rs2);
    }
}

// ---- CPU vs reference model ------------------------------------------------

/// Runs a random straight-line ALU program on the CPU and on a C++
/// reference model; final register files must agree.
TEST_P(SeededProperty, CpuMatchesReferenceOnRandomAluPrograms) {
    Rng rng(GetParam() ^ 0xa1u);

    mem::Bus bus;
    mem::Ram ram("ram", 0x10000);
    bus.map(mem::RegionConfig{"ram", 0, 0x10000, false, false}, ram);
    isa::Cpu cpu("cpu0", bus);

    const char* ops[] = {"add", "sub", "and", "or", "xor", "mul",
                         "slt", "sltu", "shl", "shr", "sra"};

    std::ostringstream program;
    std::array<std::uint32_t, 16> ref{};

    // Seed registers with addi/lui+ori pairs.
    for (unsigned r = 1; r <= 6; ++r) {
        const auto v = static_cast<std::uint32_t>(rng.next());
        program << "li r" << r << ", " << v << "\n";
        ref[r] = v;
    }
    for (int i = 0; i < 60; ++i) {
        const char* op = ops[rng.uniform(std::size(ops))];
        const unsigned rd = 1 + static_cast<unsigned>(rng.uniform(12));
        const unsigned rs1 = static_cast<unsigned>(rng.uniform(13));
        const unsigned rs2 = static_cast<unsigned>(rng.uniform(13));
        program << op << " r" << rd << ", r" << rs1 << ", r" << rs2 << "\n";

        const std::uint32_t a = ref[rs1];
        const std::uint32_t b = ref[rs2];
        std::uint32_t result = 0;
        const std::string o = op;
        if (o == "add") result = a + b;
        else if (o == "sub") result = a - b;
        else if (o == "and") result = a & b;
        else if (o == "or") result = a | b;
        else if (o == "xor") result = a ^ b;
        else if (o == "mul") result = a * b;
        else if (o == "slt")
            result = static_cast<std::int32_t>(a) <
                             static_cast<std::int32_t>(b)
                         ? 1
                         : 0;
        else if (o == "sltu") result = a < b ? 1 : 0;
        else if (o == "shl") result = a << (b & 31);
        else if (o == "shr") result = a >> (b & 31);
        else if (o == "sra")
            result = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(a) >> static_cast<int>(b & 31));
        if (rd != 0) ref[rd] = result;
    }
    program << "halt\n";

    const isa::Program p = isa::assemble(program.str(), 0);
    ram.load(0, p.code);
    cpu.reset(0);
    int steps = 0;
    while (!cpu.halted() && steps++ < 1000) cpu.step();
    ASSERT_TRUE(cpu.halted());

    for (unsigned r = 0; r < 16; ++r) {
        if (r == 13 || r == 14) continue;  // sp/lr unused either way.
        EXPECT_EQ(cpu.reg(r), ref[r]) << "r" << r;
    }
}

// ---- Evidence chain ---------------------------------------------------------

TEST_P(SeededProperty, EvidenceChainSurvivesRandomAppends) {
    Rng rng(GetParam() ^ 0xe7u);
    core::EvidenceLog log(to_bytes("k"));
    const std::size_t n = 5 + rng.uniform(60);
    for (std::size_t i = 0; i < n; ++i) {
        log.append(rng.next() & 0xffffff, "event",
                   "detail-" + std::to_string(rng.uniform(1000)),
                   rng.bytes(rng.uniform(40)));
    }
    EXPECT_TRUE(log.verify_chain());

    // Export/import round-trip preserves verifiability.
    const Bytes wire = log.serialize();
    const core::EvidenceLog imported =
        core::EvidenceLog::deserialize(wire, to_bytes("k"));
    EXPECT_EQ(imported.size(), log.size());
    EXPECT_TRUE(imported.verify_chain());
    EXPECT_EQ(imported.head(), log.head());

    // Any single random mutation breaks the chain.
    core::EvidenceLog tampered =
        core::EvidenceLog::deserialize(wire, to_bytes("k"));
    tampered.tamper_detail(rng.uniform(tampered.size()), "scrubbed");
    EXPECT_FALSE(tampered.verify_chain());
}

// ---- Serialization -----------------------------------------------------------

TEST_P(SeededProperty, BinaryRoundTripRandomSequences) {
    Rng rng(GetParam() ^ 0x5eu);
    for (int trial = 0; trial < 50; ++trial) {
        BinaryWriter w;
        std::vector<std::uint64_t> values;
        std::vector<Bytes> blobs;
        const int ops = 1 + static_cast<int>(rng.uniform(20));
        for (int i = 0; i < ops; ++i) {
            const std::uint64_t v = rng.next();
            values.push_back(v);
            w.u64(v);
            Bytes b = rng.bytes(rng.uniform(30));
            blobs.push_back(b);
            w.blob(b);
        }
        BinaryReader r(w.data());
        for (int i = 0; i < ops; ++i) {
            EXPECT_EQ(r.u64(), values[static_cast<std::size_t>(i)]);
            EXPECT_EQ(r.blob(), blobs[static_cast<std::size_t>(i)]);
        }
        EXPECT_TRUE(r.done());
    }
}

// ---- Crypto self-consistency ---------------------------------------------------

TEST_P(SeededProperty, HmacDistinctForDistinctInputs) {
    Rng rng(GetParam() ^ 0x11u);
    const Bytes key = rng.bytes(32);
    Bytes m1 = rng.bytes(64);
    Bytes m2 = m1;
    m2[rng.uniform(m2.size())] ^= static_cast<std::uint8_t>(
        1 + rng.uniform(255));
    EXPECT_NE(crypto::hmac_sha256(key, m1), crypto::hmac_sha256(key, m2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---- Evidence export error paths --------------------------------------------

TEST(EvidenceExport, RejectsGarbage) {
    EXPECT_THROW(core::EvidenceLog::deserialize(Bytes{1, 2, 3},
                                                to_bytes("k")),
                 Error);
    BinaryWriter w;
    w.u32(0x43455644);
    w.u64(5);  // Claims 5 records, provides none.
    EXPECT_THROW(core::EvidenceLog::deserialize(w.data(), to_bytes("k")),
                 Error);
}

TEST(EvidenceExport, ImportedTruncationDetected) {
    core::EvidenceLog log(to_bytes("k"));
    log.append(1, "event", "a");
    log.append(2, "event", "b");
    const auto seal = log.seal();

    // Regulator receives a truncated export (attacker dropped record 2)
    // but holds the earlier seal covering both records.
    core::EvidenceLog one(to_bytes("k"));
    one.append(1, "event", "a");
    EXPECT_FALSE(core::EvidenceLog::verify_seal(one, seal, to_bytes("k")));
}

}  // namespace
}  // namespace cres
