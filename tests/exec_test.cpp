// Differential tests for the two-tier guest-execution engine
// (docs/EXECUTION.md): the translated fast paths must be
// architecturally indistinguishable from the plain interpreter —
// identical registers, CSRs, pc, privilege/world state, cycle and
// instret counters and trap history — on every opcode, across traps,
// interrupts delivered mid-superblock, WFI, world switches, and the
// translation lifecycle (invalidation, firmware rewrite, env changes).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/translate.h"
#include "isa/assembler.h"
#include "isa/cpu.h"
#include "isa/encoding.h"
#include "mem/bus.h"
#include "mem/ram.h"
#include "platform/fleet.h"
#include "platform/memmap.h"
#include "platform/node.h"
#include "platform/translation_cache.h"
#include "platform/workload.h"

namespace cres {
namespace {

using isa::Cpu;
using isa::Instruction;
using isa::Opcode;
using platform::kAppRamBase;
using platform::kAppRamSize;
using platform::kCodeBase;

// A bare machine: CPU + bus + RAM, no peripherals, no OS services.
struct Machine {
    mem::Bus bus;
    mem::Ram ram{"app_ram", kAppRamSize};
    Cpu cpu{"cpu", bus};

    Machine() {
        bus.map(mem::RegionConfig{"app_ram", kAppRamBase, kAppRamSize,
                                  false, false},
                ram);
    }

    void load(const isa::Program& program, bool translate) {
        ram.load(program.origin - kAppRamBase, program.code);
        cpu.reset(program.origin);
        if (translate) {
            cpu.install_translation(analysis::translate_image_shared(
                program.code, program.origin, program.origin));
        }
    }

    void load_words(const std::vector<std::uint32_t>& words, bool translate) {
        Bytes code;
        for (const std::uint32_t w : words) {
            for (int i = 0; i < 4; ++i) {
                code.push_back(static_cast<std::uint8_t>(w >> (8 * i)));
            }
        }
        ram.load(kCodeBase - kAppRamBase, code);
        cpu.reset(kCodeBase);
        if (translate) {
            cpu.install_translation(
                analysis::translate_image_shared(code, kCodeBase, kCodeBase));
        }
    }
};

// Every piece of architectural state the lockstep contract covers.
void expect_same_state(const Cpu& a, const Cpu& b, const std::string& at) {
    EXPECT_EQ(a.pc(), b.pc()) << at;
    for (unsigned r = 0; r < 16; ++r) {
        EXPECT_EQ(a.reg(r), b.reg(r)) << at << " r" << r;
    }
    for (std::uint16_t c = 0; c < isa::kCsrCount; ++c) {
        EXPECT_EQ(a.csr(c), b.csr(c)) << at << " csr" << c;
    }
    EXPECT_EQ(a.instret(), b.instret()) << at;
    EXPECT_EQ(a.cycles(), b.cycles()) << at;
    EXPECT_EQ(a.trap_count(), b.trap_count()) << at;
    EXPECT_EQ(a.privileged(), b.privileged()) << at;
    EXPECT_EQ(a.secure(), b.secure()) << at;
    EXPECT_EQ(a.halted(), b.halted()) << at;
    EXPECT_EQ(a.waiting(), b.waiting()) << at;
}

std::uint32_t op(Opcode opcode, unsigned rd, unsigned rs1, unsigned rs2,
                 std::uint16_t imm) {
    Instruction insn;
    insn.opcode = opcode;
    insn.rd = static_cast<std::uint8_t>(rd);
    insn.rs1 = static_cast<std::uint8_t>(rs1);
    insn.rs2 = static_cast<std::uint8_t>(rs2);
    insn.imm = imm;
    return isa::encode(insn);
}

// Runs `words` on an interpreter machine, translated tick-driven
// machines with check elision on and off, and translated run_steps
// machines with elision on and off, asserting lockstep. Elision in
// both states is part of the per-opcode matrix: a proof bit may only
// ever remove redundant checks, never change an outcome.
void lockstep_words(const std::vector<std::uint32_t>& words,
                    std::uint64_t max_cycles = 4096) {
    Machine interp;
    Machine ticked;
    Machine ticked_checked;
    Machine threaded;
    Machine threaded_checked;
    interp.load_words(words, /*translate=*/false);
    ticked.load_words(words, /*translate=*/true);
    ticked_checked.load_words(words, /*translate=*/true);
    ticked_checked.cpu.set_check_elision(false);
    threaded.load_words(words, /*translate=*/true);
    threaded_checked.load_words(words, /*translate=*/true);
    threaded_checked.cpu.set_check_elision(false);

    for (std::uint64_t c = 0; c < max_cycles; ++c) {
        interp.cpu.tick(static_cast<sim::Cycle>(c));
        ticked.cpu.tick(static_cast<sim::Cycle>(c));
        ticked_checked.cpu.tick(static_cast<sim::Cycle>(c));
        expect_same_state(interp.cpu, ticked.cpu,
                          "cycle " + std::to_string(c));
        expect_same_state(interp.cpu, ticked_checked.cpu,
                          "no-elide cycle " + std::to_string(c));
        if (interp.cpu.halted() || interp.cpu.waiting()) break;
    }
    EXPECT_TRUE(interp.cpu.halted() || interp.cpu.waiting())
        << "program did not halt or park";
    EXPECT_GT(ticked.cpu.translated_instret(), 0u);
    EXPECT_EQ(ticked_checked.cpu.elided_ops(), 0u);

    // run_steps is contractually equivalent to a step() loop (neither
    // advances the cycle counter — programs that read mcycle see the
    // same value on both), so compare it against a step()-driven
    // interpreter rather than the tick-driven one.
    Machine stepped;
    stepped.load_words(words, /*translate=*/false);
    for (std::uint64_t s = 0; s < max_cycles; ++s) {
        if (stepped.cpu.halted() || stepped.cpu.waiting()) break;
        (void)stepped.cpu.step();
    }
    (void)threaded.cpu.run_steps(max_cycles);
    (void)threaded_checked.cpu.run_steps(max_cycles);
    expect_same_state(stepped.cpu, threaded.cpu, "run_steps final state");
    expect_same_state(stepped.cpu, threaded_checked.cpu,
                      "no-elide run_steps final state");
}

TEST(ExecLockstep, EveryOpcodeMatchesInterpreter) {
    const mem::Addr data = platform::kDataBase;
    const std::uint32_t hi = static_cast<std::uint16_t>(data >> 16);
    const std::uint32_t lo = static_cast<std::uint16_t>(data & 0xffff);

    // One program per opcode: a register-seeding prologue, the opcode
    // under test (several operand shapes), then halt. Invalid words and
    // traps are part of the matrix: both engines must agree on those
    // too (mtvec is left at 0, so an unhandled trap halts the core and
    // the final trap CSRs are compared).
    const std::vector<std::vector<std::uint32_t>> programs = {
        {op(Opcode::kNop, 0, 0, 0, 0)},
        {op(Opcode::kAdd, 1, 2, 3, 0)},
        {op(Opcode::kSub, 1, 3, 2, 0)},
        {op(Opcode::kAnd, 4, 2, 3, 0)},
        {op(Opcode::kOr, 4, 2, 3, 0)},
        {op(Opcode::kXor, 4, 2, 3, 0)},
        {op(Opcode::kShl, 4, 2, 5, 0)},
        {op(Opcode::kShr, 4, 6, 5, 0)},
        {op(Opcode::kSra, 4, 6, 5, 0)},
        {op(Opcode::kMul, 4, 2, 3, 0)},
        {op(Opcode::kSlt, 4, 6, 2, 0)},
        {op(Opcode::kSltu, 4, 6, 2, 0)},
        {op(Opcode::kAddi, 1, 2, 0, 0xfffe)},  // Negative immediate.
        {op(Opcode::kAndi, 1, 6, 0, 0x0ff0)},
        {op(Opcode::kOri, 1, 2, 0, 0xf00f)},
        {op(Opcode::kXori, 1, 2, 0, 0xffff)},
        {op(Opcode::kShli, 1, 2, 0, 7)},
        {op(Opcode::kShri, 1, 6, 0, 3)},
        {op(Opcode::kLui, 1, 0, 0, 0xbeef)},
        // Loads/stores: r7 = data base; store then load all widths.
        {op(Opcode::kLui, 7, 0, 0, static_cast<std::uint16_t>(hi)),
         op(Opcode::kOri, 7, 7, 0, static_cast<std::uint16_t>(lo)),
         op(Opcode::kSw, 2, 7, 0, 0), op(Opcode::kLw, 8, 7, 0, 0),
         op(Opcode::kSh, 3, 7, 0, 8), op(Opcode::kLh, 9, 7, 0, 8),
         op(Opcode::kSb, 6, 7, 0, 12), op(Opcode::kLb, 10, 7, 0, 12),
         // Misaligned load: trap with mtvec=0 halts; CSRs compared.
         op(Opcode::kLw, 11, 7, 0, 2)},
        // Branches, both taken and not taken.
        {op(Opcode::kBeq, 2, 2, 0, 8), op(Opcode::kHalt, 0, 0, 0, 0),
         op(Opcode::kBeq, 2, 3, 0, 0xfffc)},
        {op(Opcode::kBne, 2, 3, 0, 8), op(Opcode::kHalt, 0, 0, 0, 0),
         op(Opcode::kBne, 2, 2, 0, 0xfffc)},
        {op(Opcode::kBlt, 2, 6, 0, 8), op(Opcode::kHalt, 0, 0, 0, 0),
         op(Opcode::kBlt, 6, 2, 0, 0xfffc)},
        {op(Opcode::kBge, 6, 2, 0, 8), op(Opcode::kHalt, 0, 0, 0, 0),
         op(Opcode::kBge, 2, 6, 0, 0xfffc)},
        {op(Opcode::kBltu, 6, 2, 0, 8), op(Opcode::kHalt, 0, 0, 0, 0),
         op(Opcode::kBltu, 2, 6, 0, 0xfffc)},
        {op(Opcode::kBgeu, 2, 6, 0, 8), op(Opcode::kHalt, 0, 0, 0, 0),
         op(Opcode::kBgeu, 6, 2, 0, 0xfffc)},
        // jal forward over a halt; jalr return through lr.
        {op(Opcode::kJal, 14, 0, 0, 12), op(Opcode::kHalt, 0, 0, 0, 0),
         op(Opcode::kNop, 0, 0, 0, 0), op(Opcode::kJalr, 0, 14, 0, 0)},
        // csrw/csrr round trip through mscratch.
        {op(Opcode::kCsrw, 0, 2, 0, isa::kCsrMscratch),
         op(Opcode::kCsrr, 1, 0, 0, isa::kCsrMscratch)},
        // csrr of the read-only counters.
        {op(Opcode::kCsrr, 1, 0, 0, isa::kCsrMinstret),
         op(Opcode::kCsrr, 2, 0, 0, isa::kCsrMcycle)},
        // ecall with no handler: architectural trap (mtvec=0 -> halt).
        {op(Opcode::kEcall, 0, 0, 0, 7)},
        // mret round trip: mepc set via csrw, then return through it.
        // Body starts at +0x10 (after the 4-word prologue); the halt
        // mret lands on is at +0x20.
        {op(Opcode::kLui, 1, 0, 0, 1),  // r1 = 0x10000 = kCodeBase.
         op(Opcode::kOri, 1, 1, 0, 0x20),
         op(Opcode::kCsrw, 0, 1, 0, isa::kCsrMepc),
         op(Opcode::kMret, 0, 0, 0, 0), op(Opcode::kHalt, 0, 0, 0, 0)},
        // smc with no secure world installed: security-fault trap.
        {op(Opcode::kSmc, 0, 0, 0, 0)},
        // sret outside the secure world: security-fault trap.
        {op(Opcode::kSret, 0, 0, 0, 0)},
        // smc/sret round trip: stvec -> secure world -> back. The sret
        // sits at +0x28 (body word 6 after the 4-word prologue).
        {op(Opcode::kLui, 1, 0, 0, 1), op(Opcode::kOri, 1, 1, 0, 0x28),
         op(Opcode::kCsrw, 0, 1, 0, isa::kCsrStvec),
         op(Opcode::kSmc, 0, 0, 0, 0), op(Opcode::kHalt, 0, 0, 0, 0),
         op(Opcode::kNop, 0, 0, 0, 0),
         op(Opcode::kSret, 0, 0, 0, 0)},  // Secure-world entry point.
        // wfi with a pending-but-masked interrupt path is covered by
        // the IRQ tests; bare wfi parks the core (compared mid-wait).
        {op(Opcode::kWfi, 0, 0, 0, 0)},
        // Undefined opcode: illegal-instruction trap from the word.
        {0xff000000u},
        // Writes to r0 are discarded on every path.
        {op(Opcode::kAddi, 0, 2, 0, 123), op(Opcode::kAdd, 0, 2, 3, 0)},
    };

    std::size_t index = 0;
    for (const auto& body : programs) {
        SCOPED_TRACE("program " + std::to_string(index++));
        std::vector<std::uint32_t> words = {
            // Prologue: distinctive register values.
            op(Opcode::kAddi, 2, 0, 0, 5),
            op(Opcode::kAddi, 3, 0, 0, 9),
            op(Opcode::kAddi, 5, 0, 0, 3),
            op(Opcode::kLui, 6, 0, 0, 0x8000),  // Negative value.
        };
        words.insert(words.end(), body.begin(), body.end());
        words.push_back(op(Opcode::kHalt, 0, 0, 0, 0));
        lockstep_words(words, 512);
    }
}

TEST(ExecLockstep, InterruptDeliveredMidSuperblock) {
    // A tight translated loop with interrupts enabled; the IRQ arrives
    // while the threaded dispatcher is deep inside the superblock, and
    // must be delivered at exactly the same instruction boundary.
    const isa::Program program = isa::assemble(R"(
        start:
            la   r1, isr
            csrw mtvec, r1
            addi r1, r0, 1          ; enable irq line 0
            csrw mie, r1
            addi r1, r0, 2          ; mstatus.MIE
            csrw mstatus, r1
            addi r2, r0, 0
        loop:
            addi r2, r2, 1
            addi r3, r2, 7
            xor  r4, r3, r2
            j    loop
        isr:
            addi r5, r5, 1
            beq  r5, r6, stop       ; r6 never matches: fall through
            mret
        stop:
            halt
    )",
                                               kCodeBase);

    Machine interp;
    Machine translated;
    interp.load(program, false);
    translated.load(program, true);

    // Drive both with step(); inject the IRQ after unaligned strides so
    // delivery lands mid-superblock at varying loop offsets.
    std::uint64_t stride = 37;
    for (int round = 0; round < 50; ++round) {
        for (std::uint64_t i = 0; i < stride; ++i) {
            (void)interp.cpu.step();
            (void)translated.cpu.step();
        }
        interp.cpu.raise_irq(0);
        translated.cpu.raise_irq(0);
        expect_same_state(interp.cpu, translated.cpu,
                          "round " + std::to_string(round));
        stride = (stride * 3 + 1) % 97 + 13;  // Varied, bounded.
    }
    EXPECT_GT(interp.cpu.trap_count(), 0u);
    EXPECT_GT(translated.cpu.translated_instret(), 0u);

    // Same again with run_steps driving the translated core.
    Machine threaded;
    threaded.load(program, true);
    Machine reference;
    reference.load(program, false);
    std::uint64_t budget = 41;
    for (int round = 0; round < 50; ++round) {
        const std::uint64_t a = threaded.cpu.run_steps(budget);
        const std::uint64_t b = reference.cpu.run_steps(budget);
        EXPECT_EQ(a, b) << "round " << round;
        threaded.cpu.raise_irq(0);
        reference.cpu.raise_irq(0);
        expect_same_state(threaded.cpu, reference.cpu,
                          "threaded round " + std::to_string(round));
        budget = (budget * 5 + 3) % 131 + 11;  // Varied, bounded.
    }
}

TEST(ExecLockstep, WfiAndTimerWakeupMatch) {
    platform::NodeConfig a_cfg;
    a_cfg.name = "interp";
    a_cfg.translate = false;
    platform::NodeConfig b_cfg;
    b_cfg.name = "translated";
    b_cfg.translate = true;

    platform::Node a(a_cfg);
    platform::Node b(b_cfg);
    const isa::Program program = platform::interrupt_control_loop_program();
    a.load_and_start(program);
    b.load_and_start(program);
    EXPECT_FALSE(a.cpu.translation_active());
    EXPECT_TRUE(b.cpu.translation_active());

    for (int slice = 0; slice < 40; ++slice) {
        a.run(500);
        b.run(500);
        expect_same_state(a.cpu, b.cpu, "slice " + std::to_string(slice));
    }
    EXPECT_GT(b.cpu.trap_count(), 0u);  // Timer IRQs delivered.
    EXPECT_GT(b.cpu.translated_instret(), 0u);
    EXPECT_GT(a.stats().control_iterations, 0u);
    EXPECT_EQ(a.stats().control_iterations, b.stats().control_iterations);
}

TEST(ExecLockstep, ControlLoopNodesStayIdentical) {
    platform::NodeConfig a_cfg;
    a_cfg.name = "interp";
    a_cfg.resilient = true;
    a_cfg.translate = false;
    platform::NodeConfig b_cfg = a_cfg;
    b_cfg.name = "translated";
    b_cfg.translate = true;

    platform::Node a(a_cfg);
    platform::Node b(b_cfg);
    crypto::Hash256 seed{};
    seed.fill(5);
    const crypto::MerkleSigner vendor(seed, 2);
    a.provision(vendor.public_key(), to_bytes("root"));
    b.provision(vendor.public_key(), to_bytes("root"));
    const isa::Program program = platform::control_loop_program();
    a.load_and_start(program);
    b.load_and_start(program);
    a.arm_resilience(program);
    b.arm_resilience(program);

    for (int slice = 0; slice < 20; ++slice) {
        a.run(2000);
        b.run(2000);
        expect_same_state(a.cpu, b.cpu, "slice " + std::to_string(slice));
    }
    EXPECT_GT(a.stats().control_iterations, 0u);
    EXPECT_EQ(a.stats().control_iterations, b.stats().control_iterations);
    EXPECT_EQ(a.stats().telemetry_frames, b.stats().telemetry_frames);
    EXPECT_GT(b.cpu.translated_instret(), 0u);
}

TEST(ExecLockstep, CpuBurstsMatchPerCycleAcrossTimerInterrupts) {
    // ALU, mul-stall and branch loops plus a leaf call, with an
    // auto-reloading timer whose interrupt lands inside bursts at a
    // period coprime to every loop. The per-cycle node is the reference.
    std::ostringstream os;
    os << "start:\n"
       << "    la   r1, isr\n"
       << "    csrw mtvec, r1\n"
       << "    li   r1, " << platform::kTimerBase << "\n"
       << "    li   r2, 997\n"
       << "    sw   r2, r1, 4\n"   // COMPARE.
       << "    addi r2, r0, 3\n"
       << "    sw   r2, r1, 8\n"   // CTRL: enable + auto-reload.
       << "    addi r2, r0, " << (1u << platform::kIrqTimer) << "\n"
       << "    csrw mie, r2\n"
       << "    addi r2, r0, 2\n"
       << "    csrw mstatus, r2\n"
       << "main:\n"
       << "    addi r7, r0, 200\n"
       << "alu:\n"
       << "    addi r2, r2, 3\n"
       << "    xor  r3, r3, r2\n"
       << "    shli r4, r2, 3\n"
       << "    sub  r5, r4, r3\n"
       << "    addi r7, r7, -1\n"
       << "    bne  r7, r0, alu\n"
       << "    addi r7, r0, 50\n"
       << "mul:\n"
       << "    mul  r6, r6, r2\n"
       << "    addi r6, r6, 1\n"
       << "    addi r7, r7, -1\n"
       << "    bne  r7, r0, mul\n"
       << "    addi r7, r0, 64\n"
       << "branch:\n"
       << "    andi r8, r7, 1\n"
       << "    beq  r8, r0, even\n"
       << "    addi r9, r9, 1\n"
       << "    j    next\n"
       << "even:\n"
       << "    addi r10, r10, 1\n"
       << "next:\n"
       << "    addi r7, r7, -1\n"
       << "    blt  r0, r7, branch\n"
       << "    call leaf\n"
       << "    j    main\n"
       << "leaf:\n"
       << "    addi r11, r11, 1\n"
       << "    ret\n"
       << "isr:\n"
       << "    addi r12, r12, 1\n"
       << "    mret\n";
    const isa::Program program = isa::assemble(os.str(), kCodeBase);

    platform::NodeConfig a_cfg;
    a_cfg.name = "percycle";
    a_cfg.quiescence = false;
    platform::NodeConfig b_cfg = a_cfg;
    b_cfg.name = "bursts";
    b_cfg.quiescence = true;
    platform::Node a(a_cfg);
    platform::Node b(b_cfg);
    a.load_and_start(program);
    b.load_and_start(program);
    ASSERT_TRUE(b.cpu.translation_active());

    for (int slice = 0; slice < 40; ++slice) {
        const sim::Cycle len = 300 + static_cast<sim::Cycle>(slice) * 137 % 700;
        a.run(len);
        b.run(len);
        ASSERT_EQ(a.sim.now(), b.sim.now());
        expect_same_state(a.cpu, b.cpu, "slice " + std::to_string(slice));
    }
    EXPECT_EQ(a.timer.matches(), b.timer.matches());
    EXPECT_GT(b.cpu.reg(12), 10u);  // Timer interrupts were taken.
    EXPECT_EQ(a.sim.cycles_burst(), 0u);
    // Most cycles ran in bursts, so the comparison is not vacuous.
    EXPECT_GT(b.sim.cycles_burst(), b.sim.now() * 9 / 10);
}

TEST(ExecTranslation, SelfModifyingCodeFallsBackToInterpreter) {
    // The program overwrites its own `addi r1, r0, 1` with
    // `addi r1, r0, 42`, then loops back over it. Both engines must
    // execute the *new* instruction; the translated core must have
    // dropped its translation at the store.
    const std::uint32_t patched = op(Opcode::kAddi, 1, 0, 0, 42);
    const isa::Program program = isa::assemble(
        R"(
        start:
            la   r7, target
            li   r8, )" +
            std::to_string(patched) + R"(
        target:
            addi r1, r0, 1
            beq  r1, r9, done       ; r9 = 42 once patched
            sw   r8, r7, 0          ; overwrite `target` word
            addi r9, r0, 42
            j    target
        done:
            halt
    )",
        kCodeBase);

    Machine interp;
    Machine translated;
    interp.load(program, false);
    translated.load(program, true);
    EXPECT_TRUE(translated.cpu.translation_active());

    for (std::uint64_t c = 0; c < 256 && !interp.cpu.halted(); ++c) {
        interp.cpu.tick(static_cast<sim::Cycle>(c));
        translated.cpu.tick(static_cast<sim::Cycle>(c));
        expect_same_state(interp.cpu, translated.cpu,
                          "cycle " + std::to_string(c));
    }
    EXPECT_TRUE(interp.cpu.halted());
    EXPECT_EQ(interp.cpu.reg(1), 42u);
    EXPECT_FALSE(translated.cpu.translation_active())
        << "self-modification must invalidate the translation";

    // run_steps variant: the burst itself contains the store.
    Machine threaded;
    threaded.load(program, true);
    (void)threaded.cpu.run_steps(256);
    EXPECT_TRUE(threaded.cpu.halted());
    EXPECT_EQ(threaded.cpu.reg(1), 42u);
    EXPECT_FALSE(threaded.cpu.translation_active());
}

TEST(ExecTranslation, MpuReconfigurationRevalidates) {
    const isa::Program program = isa::assemble(R"(
        loop:
            addi r1, r1, 1
            j    loop
    )",
                                               kCodeBase);
    Machine interp;
    Machine translated;
    interp.load(program, false);
    translated.load(program, true);

    for (int i = 0; i < 10; ++i) {
        (void)interp.cpu.step();
        (void)translated.cpu.step();
    }
    expect_same_state(interp.cpu, translated.cpu, "before MPU");

    // Enable an MPU with *no* executable region: the next fetch must
    // MPU-fault on both engines — the translated core may not keep
    // running from its (now unfetchable) window.
    for (Machine* m : {&interp, &translated}) {
        m->cpu.mpu().add_region(mem::MpuRegion{
            "data-only", kAppRamBase, kAppRamSize, true, true, false, true});
        m->cpu.mpu().set_enabled(true);
    }
    (void)interp.cpu.step();
    (void)translated.cpu.step();
    expect_same_state(interp.cpu, translated.cpu, "after MPU enable");
    EXPECT_GT(interp.cpu.trap_count(), 0u);

    // Restore execute permission: translation becomes usable again.
    for (Machine* m : {&interp, &translated}) {
        m->cpu.mpu().set_enabled(false);
        m->cpu.reset(kCodeBase);
    }
    const std::uint64_t before = translated.cpu.translated_instret();
    for (int i = 0; i < 10; ++i) {
        (void)interp.cpu.step();
        (void)translated.cpu.step();
    }
    expect_same_state(interp.cpu, translated.cpu, "after MPU disable");
    EXPECT_GT(translated.cpu.translated_instret(), before);
}

TEST(ExecTranslation, FirmwareRewriteBetweenBootsRetranslates) {
    platform::NodeConfig cfg;
    cfg.name = "node";
    cfg.translate = true;
    cfg.translation_cache = std::make_shared<platform::TranslationCache>();
    platform::Node node(cfg);

    const isa::Program first = isa::assemble(R"(
        loop:
            addi r1, r1, 1
            ecall 1
            j loop
    )",
                                             kCodeBase);
    const isa::Program second = isa::assemble(R"(
        loop:
            addi r1, r1, 3
            ecall 1
            j loop
    )",
                                              kCodeBase);

    node.load_and_start(first);
    ASSERT_TRUE(node.cpu.translation_active());
    EXPECT_EQ(cfg.translation_cache->size(), 1u);
    node.run(100);
    const std::uint32_t r1_first = node.cpu.reg(1);
    EXPECT_GT(r1_first, 0u);

    // Rewrite the firmware (new image, same address) and restart: the
    // stale translation must be replaced, not reused — the cache keys
    // on code content, so the second image is a second entry.
    node.load_and_start(second);
    ASSERT_TRUE(node.cpu.translation_active());
    EXPECT_EQ(cfg.translation_cache->size(), 2u);
    EXPECT_EQ(cfg.translation_cache->misses(), 2u);
    node.run(100);
    // Program two advances by 3 per iteration: values diverge.
    EXPECT_NE(node.cpu.reg(1), r1_first);
    EXPECT_EQ(node.cpu.reg(1) % 3, 0u);
}

TEST(ExecTranslation, FleetSharesOneTranslationPerImage) {
    platform::FleetConfig cfg;
    cfg.device_count = 4;
    cfg.resilient = false;
    cfg.worker_threads = 2;
    platform::Fleet fleet(cfg);

    // All devices run the same measured workload: one cache entry,
    // built once, shared by every node (including each reboot).
    EXPECT_EQ(fleet.translation_cache().size(), 1u);
    EXPECT_EQ(fleet.translation_cache().misses(), 1u);
    EXPECT_GE(fleet.translation_cache().hits(), cfg.device_count - 1);
    const isa::TranslationImage* shared = fleet.device(0).cpu.translation();
    ASSERT_NE(shared, nullptr);
    for (std::size_t i = 1; i < fleet.size(); ++i) {
        EXPECT_EQ(fleet.device(i).cpu.translation(), shared)
            << "device " << i << " built a private translation";
    }
    EXPECT_GT(shared->coverage(), 0.9) << "control loop should translate";

    fleet.run(20000);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_GT(fleet.device(i).cpu.translated_instret(), 0u);
    }
}

TEST(ExecTranslation, TranslateOffRunsInterpreted) {
    platform::FleetConfig on_cfg;
    on_cfg.device_count = 2;
    on_cfg.resilient = false;
    platform::FleetConfig off_cfg = on_cfg;
    off_cfg.translate = false;

    platform::Fleet on(on_cfg);
    platform::Fleet off(off_cfg);
    on.run(20000);
    off.run(20000);
    for (std::size_t i = 0; i < on.size(); ++i) {
        expect_same_state(on.device(i).cpu, off.device(i).cpu,
                          "device " + std::to_string(i));
        EXPECT_GT(on.device(i).cpu.translated_instret(), 0u);
        EXPECT_EQ(off.device(i).cpu.translated_instret(), 0u);
    }
    EXPECT_EQ(on.fleet_iterations(), off.fleet_iterations());
}

TEST(ExecTranslation, GadgetOutsideImageStaysUntranslated) {
    // Code injected outside the measured image (the paper's gadget-in-
    // data-region attack) executes through the interpreter even while a
    // translation is installed for the firmware window.
    platform::NodeConfig cfg;
    cfg.name = "node";
    platform::Node node(cfg);
    const isa::Program firmware = platform::control_loop_program();
    node.load_and_start(firmware);
    ASSERT_TRUE(node.cpu.translation_active());
    const isa::TranslationImage* image = node.cpu.translation();
    EXPECT_FALSE(image->contains(platform::gadget_origin()));

    const isa::Program gadget = isa::assemble(R"(
        addi r1, r0, 77
        halt
    )",
                                              platform::gadget_origin());
    node.app_ram.load(platform::gadget_origin() - kAppRamBase, gadget.code);
    node.cpu.set_pc(platform::gadget_origin());
    const std::uint64_t translated_before = node.cpu.translated_instret();
    (void)node.cpu.step();
    (void)node.cpu.step();
    EXPECT_EQ(node.cpu.reg(1), 77u);
    EXPECT_TRUE(node.cpu.halted());
    EXPECT_EQ(node.cpu.translated_instret(), translated_before)
        << "gadget instructions must not retire via the fast path";
}

TEST(ExecTranslation, CacheKeysDifferByContentBaseAndEntry) {
    const Bytes code_a = {1, 2, 3, 4};
    const Bytes code_b = {1, 2, 3, 5};
    using platform::TranslationCache;
    const auto base_key = TranslationCache::key_for(code_a, 0x100, 0x100);
    EXPECT_NE(TranslationCache::key_for(code_b, 0x100, 0x100), base_key);
    EXPECT_NE(TranslationCache::key_for(code_a, 0x200, 0x100), base_key);
    EXPECT_NE(TranslationCache::key_for(code_a, 0x100, 0x104), base_key);
    EXPECT_EQ(TranslationCache::key_for(code_a, 0x100, 0x100), base_key);
}

// --- proof-carrying check elision (docs/ANALYSIS.md) -----------------

// Every pointer is materialized in the same superblock as its
// accesses, so the block-local proof walk certifies all four memory
// operations per iteration: maximum elision, still lockstep.
isa::Program elidable_scan_program() {
    std::ostringstream os;
    os << "start:\n"
       << "    li   sp, " << platform::kStackTop << "\n"
       << "    li   r9, 40\n"
       << "loop:\n"
       << "    li   r7, " << platform::kDataBase << "\n"
       << "    lw   r1, r7, 0\n"
       << "    sw   r1, r7, 4\n"
       << "    lw   r2, r7, 8\n"
       << "    sw   r2, r7, 12\n"
       << "    addi r9, r9, -1\n"
       << "    bne  r9, r0, loop\n"
       << "    halt\n";
    return isa::assemble(os.str(), kCodeBase);
}

TEST(ExecElision, ProvenAccessesElideAndStayLockstep) {
    const isa::Program p = elidable_scan_program();
    Machine interp;
    Machine elided;
    Machine checked;
    interp.load(p, /*translate=*/false);
    elided.load(p, /*translate=*/true);
    checked.load(p, /*translate=*/true);
    checked.cpu.set_check_elision(false);

    for (std::uint64_t s = 0; s < 8192 && !interp.cpu.halted(); ++s) {
        (void)interp.cpu.step();
    }
    ASSERT_TRUE(interp.cpu.halted());
    (void)elided.cpu.run_steps(8192);
    (void)checked.cpu.run_steps(8192);
    expect_same_state(interp.cpu, elided.cpu, "elided final state");
    expect_same_state(interp.cpu, checked.cpu, "checked final state");

    // 40 iterations x 4 proven accesses, all through the fast path.
    EXPECT_EQ(elided.cpu.elided_ops(), 160u);
    EXPECT_EQ(checked.cpu.elided_ops(), 0u);
}

TEST(ExecElision, OobCapableAccessIsNeverElided) {
    // Red-team soundness: the store address is loaded from (untrusted,
    // attacker-writable) memory, so no proof can bound it — its safe
    // bits must stay clear even though the neighbouring constant-
    // address load is proven. An elided store here would skip the very
    // check that catches the out-of-bounds write.
    std::ostringstream os;
    os << "start:\n"
       << "    li   sp, " << platform::kStackTop << "\n"
       << "    li   r7, " << platform::kDataBase << "\n"
       << "probe:\n"
       << "    lw   r1, r7, 0\n"
       << "attack:\n"
       << "    sw   r0, r1, 0\n"
       << "    halt\n";
    const isa::Program p = isa::assemble(os.str(), kCodeBase);

    const isa::TranslationImage image =
        analysis::translate_image(p.code, p.origin, p.symbol("start"));
    const std::size_t probe_idx = (p.symbol("probe") - p.origin) / 4;
    const std::size_t attack_idx = (p.symbol("attack") - p.origin) / 4;
    EXPECT_NE(image.uops[probe_idx].safe & isa::Uop::kSafeLoad, 0u)
        << "constant in-bounds load should be proven";
    EXPECT_EQ(image.uops[attack_idx].safe, 0u)
        << "memory-derived store address must never be elided";

    // Runtime differential: the data word holds 0, so the store aims
    // at unmapped address 0 — the checked slow path faults identically
    // on both engines, and only the proven load was elided.
    Machine interp;
    Machine elided;
    interp.load(p, /*translate=*/false);
    elided.load(p, /*translate=*/true);
    for (int s = 0; s < 32; ++s) {
        (void)interp.cpu.step();
    }
    (void)elided.cpu.run_steps(32);
    expect_same_state(interp.cpu, elided.cpu, "oob store final state");
    EXPECT_GT(interp.cpu.trap_count(), 0u);
    EXPECT_EQ(elided.cpu.elided_ops(), 1u);
}

TEST(ExecElision, FleetSharesOneAnalysisArtifactPerImage) {
    platform::FleetConfig cfg;
    cfg.device_count = 4;
    cfg.resilient = false;
    cfg.worker_threads = 2;
    platform::Fleet fleet(cfg);

    // One proof artifact per firmware image, derived once and shared —
    // the admission report cache mirrors the translation cache.
    EXPECT_EQ(fleet.analysis_cache().size(), 1u);
    EXPECT_EQ(fleet.analysis_cache().misses(), 1u);
    EXPECT_GE(fleet.analysis_cache().hits(), cfg.device_count - 1);

    fleet.run(20000);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        EXPECT_GT(fleet.device(i).cpu.elided_ops(), 0u)
            << "device " << i << " never reached the check-elided path";
    }
}

TEST(ExecElision, StateIdenticalAcrossWorkersQuiescenceAndElision) {
    // Bit-identical device state no matter how the fleet is driven:
    // 1 vs 8 workers, quiescence fast-forward on/off, check elision
    // on/off — all against one serial fully-checked reference.
    const auto build = [](std::size_t workers, bool quiescence,
                          bool elide) {
        platform::FleetConfig cfg;
        cfg.device_count = 8;
        cfg.resilient = false;
        cfg.interrupt_workload = true;
        cfg.worker_threads = workers;
        cfg.quiescence = quiescence;
        cfg.elide_proven_checks = elide;
        auto fleet = std::make_unique<platform::Fleet>(cfg);
        fleet->run(20000);
        return fleet;
    };
    const auto ref = build(1, false, false);
    const struct Variant {
        std::size_t workers;
        bool quiescence;
        bool elide;
        const char* tag;
    } variants[] = {
        {8, false, false, "8 workers"},
        {1, true, false, "quiescence"},
        {1, false, true, "elision"},
        {8, true, true, "8 workers + quiescence + elision"},
    };
    for (const Variant& v : variants) {
        const auto fleet = build(v.workers, v.quiescence, v.elide);
        for (std::size_t i = 0; i < fleet->size(); ++i) {
            expect_same_state(
                ref->device(i).cpu, fleet->device(i).cpu,
                std::string(v.tag) + " device " + std::to_string(i));
        }
    }
}

#ifdef NDEBUG
TEST(CpuRegisters, OutOfRangeAccessIsHardenedInRelease) {
    mem::Bus bus;
    Cpu cpu("cpu", bus);
    EXPECT_EQ(cpu.reg(16), 0u);
    cpu.set_reg(16, 5);  // Discarded, not UB.
    EXPECT_EQ(cpu.reg(0), 0u);
}
#else
TEST(CpuRegistersDeathTest, OutOfRangeAccessAssertsInDebug) {
    mem::Bus bus;
    Cpu cpu("cpu", bus);
    EXPECT_DEATH((void)cpu.reg(16), "register index out of range");
    EXPECT_DEATH(cpu.set_reg(16, 5), "register index out of range");
}
#endif

}  // namespace
}  // namespace cres
