#include "isa/cpu.h"

#include <algorithm>
#include <cassert>

#include "util/error.h"

namespace cres::isa {

namespace {

constexpr unsigned kLinkRegister = 14;

std::int32_t as_signed(std::uint32_t v) noexcept {
    return static_cast<std::int32_t>(v);
}

/// Micro-ops whose retirement touches nothing outside the core, so a
/// burst may retire them: ALU ops, mul, branches, and jal/jalr while no
/// observer would be told about a call or return.
bool burst_safe(UopKind kind, bool observed) noexcept {
    switch (kind) {
        case UopKind::kNop: case UopKind::kAdd: case UopKind::kSub:
        case UopKind::kAnd: case UopKind::kOr: case UopKind::kXor:
        case UopKind::kShl: case UopKind::kShr: case UopKind::kSra:
        case UopKind::kMul: case UopKind::kSlt: case UopKind::kSltu:
        case UopKind::kAddi: case UopKind::kAndi: case UopKind::kOri:
        case UopKind::kXori: case UopKind::kShli: case UopKind::kShri:
        case UopKind::kLui: case UopKind::kBeq: case UopKind::kBne:
        case UopKind::kBlt: case UopKind::kBge: case UopKind::kBltu:
        case UopKind::kBgeu:
            return true;
        case UopKind::kJal: case UopKind::kJalr:
            return !observed;
        default:
            return false;  // Memory and system ops, kInvalid.
    }
}

}  // namespace

Cpu::Cpu(std::string name, mem::Bus& bus) : name_(std::move(name)), bus_(bus) {}

void Cpu::reset(mem::Addr entry, bool secure) {
    regs_.fill(0);
    csrs_.fill(0);
    pc_ = entry;
    privileged_ = true;
    secure_ = secure;
    halted_ = false;
    waiting_ = false;
    stall_ = 0;
    elide_live_ = false;
}

std::uint32_t Cpu::reg(unsigned index) const noexcept {
    assert(index < 16 && "Cpu::reg: register index out of range");
    return index < 16 ? regs_[index] : 0;
}

void Cpu::set_reg(unsigned index, std::uint32_t value) noexcept {
    assert(index < 16 && "Cpu::set_reg: register index out of range");
    if (index > 0 && index < 16) regs_[index] = value;
}

std::uint32_t Cpu::csr(std::uint16_t number) const {
    if (number >= kCsrCount) {
        throw IsaError("Cpu::csr: bad CSR " + std::to_string(number));
    }
    if (number == kCsrMcycle) return static_cast<std::uint32_t>(cycles_);
    if (number == kCsrMinstret) return static_cast<std::uint32_t>(instret_);
    return csrs_[number];
}

void Cpu::set_csr(std::uint16_t number, std::uint32_t value) {
    if (number >= kCsrCount) {
        throw IsaError("Cpu::set_csr: bad CSR " + std::to_string(number));
    }
    csrs_[number] = value;
}

void Cpu::raise_irq(unsigned line) {
    if (line >= 32) throw IsaError("raise_irq: line out of range");
    csrs_[kCsrMip] |= (1u << line);
    waiting_ = false;
}

void Cpu::add_observer(CpuObserver* observer) {
    if (observer == nullptr) throw IsaError("Cpu::add_observer: null");
    observers_.push_back(observer);
}

void Cpu::remove_observer(CpuObserver* observer) noexcept {
    std::erase(observers_, observer);
}

void Cpu::notify_world_switch() {
    for (CpuObserver* o : observers_) o->on_world_switch(secure_);
}

void Cpu::install_translation(std::shared_ptr<const TranslationImage> image) {
    clear_translation();
    if (image == nullptr || image->uops.empty()) return;
    translation_ = std::move(image);
    env_valid_ = false;
    // Any successful write into the covered window — any master — drops
    // the translation: self-modifying or tampered code must execute
    // through the interpreter, which fetches the real bytes.
    bus_.set_write_watch(
        translation_->base, translation_->size_bytes,
        [this](mem::Addr /*addr*/, std::uint32_t /*size*/) {
            clear_translation();
        });
}

void Cpu::clear_translation() noexcept {
    if (translation_ == nullptr) return;
    translation_.reset();
    env_valid_ = false;
    elide_live_ = false;
    bus_.clear_write_watch();
}

bool Cpu::translation_usable() {
    if (translation_ == nullptr) return false;
    if (env_valid_ && env_mpu_generation_ == mpu_.generation() &&
        env_bus_generation_ == bus_.config_generation() &&
        env_privileged_ == privileged_ && env_secure_ == secure_) {
        return env_usable_;
    }
    env_mpu_generation_ = mpu_.generation();
    env_bus_generation_ = bus_.config_generation();
    env_privileged_ = privileged_;
    env_secure_ = secure_;
    env_valid_ = true;

    // Check elision is only admissible while the MPU is disabled: the
    // static proofs are stated against the SoC segment map, and an MPU
    // program can be strictly tighter than it. With the MPU off, an
    // elided access and a checked access behave identically (the MPU
    // check is a no-op and alignment was proven), so lockstep with the
    // interpreter is preserved by construction.
    env_elide_ = elide_enabled_ && !mpu_.enabled();

    // Whole-window bus probe is sound: bus regions never overlap, so a
    // window decoded by one fetchable region implies every 4-byte fetch
    // inside it succeeds. MPU regions may overlap, so execute permission
    // is probed at fetch granularity, exactly as the interpreter checks.
    const mem::BusAttr attr{mem::Master::kCpu, secure_, privileged_};
    bool usable = bus_.fetch_allowed(translation_->base,
                                     translation_->size_bytes, attr);
    const mem::Addr end = translation_->base + translation_->size_bytes;
    for (mem::Addr a = translation_->base; usable && a < end; a += 4) {
        usable = mpu_.allows(a, 4, mem::AccessType::kExecute, privileged_);
    }
    env_usable_ = usable;
    return env_usable_;
}

void Cpu::trap(std::uint32_t cause, std::uint32_t tval, mem::Addr epc) {
    ++trap_count_;
    elide_live_ = false;  // Vector entry is computed control flow.
    csrs_[kCsrMepc] = epc;
    csrs_[kCsrMcause] = cause;
    csrs_[kCsrMtval] = tval;

    std::uint32_t status = csrs_[kCsrMstatus];
    // Save previous privilege and interrupt-enable, then mask interrupts.
    if (privileged_) {
        status |= kMstatusMpp;
    } else {
        status &= ~kMstatusMpp;
    }
    if (status & kMstatusMie) {
        status |= kMstatusMpie;
    } else {
        status &= ~kMstatusMpie;
    }
    status &= ~kMstatusMie;
    csrs_[kCsrMstatus] = status;

    privileged_ = true;
    pc_ = csrs_[kCsrMtvec];
    for (CpuObserver* o : observers_) o->on_trap(cause, epc);

    // An unconfigured trap vector means the platform has no handler:
    // the core halts rather than executing from address 0 forever.
    if (csrs_[kCsrMtvec] == 0) {
        halted_ = true;
        for (CpuObserver* o : observers_) o->on_halt(epc);
    }
}

void Cpu::inject_trap(TrapCause cause, std::uint32_t tval) {
    trap(static_cast<std::uint32_t>(cause), tval, pc_);
}

bool Cpu::take_pending_interrupt() {
    if ((csrs_[kCsrMstatus] & kMstatusMie) == 0) return false;
    const std::uint32_t pending = csrs_[kCsrMip] & csrs_[kCsrMie];
    if (pending == 0) return false;
    unsigned line = 0;
    while (((pending >> line) & 1u) == 0) ++line;
    csrs_[kCsrMip] &= ~(1u << line);  // Edge-style acknowledge.
    trap(static_cast<std::uint32_t>(TrapCause::kInterruptBase) | line, 0, pc_);
    return true;
}

bool Cpu::load(mem::Addr addr, std::uint32_t size, std::uint32_t& out,
               mem::Addr insn_pc, bool elide) {
    if (elide) {
        ++elided_ops_;
    } else {
        if (addr % size != 0) {
            trap(static_cast<std::uint32_t>(TrapCause::kMisalignedAccess),
                 addr, insn_pc);
            return false;
        }
        const auto decision =
            mpu_.check(addr, size, mem::AccessType::kRead, privileged_);
        if (!decision.allowed) {
            trap(static_cast<std::uint32_t>(TrapCause::kMpuFault), addr,
                 insn_pc);
            return false;
        }
    }
    const mem::BusAttr attr{mem::Master::kCpu, secure_, privileged_};
    std::uint32_t value = 0;
    if (bus_.access(mem::BusOp::kRead, addr, size, value, attr) !=
        mem::BusResponse::kOk) {
        trap(static_cast<std::uint32_t>(TrapCause::kBusFault), addr, insn_pc);
        return false;
    }
    out = value;
    return true;
}

bool Cpu::store(mem::Addr addr, std::uint32_t size, std::uint32_t value,
                mem::Addr insn_pc, bool elide) {
    if (elide) {
        ++elided_ops_;
    } else {
        if (addr % size != 0) {
            trap(static_cast<std::uint32_t>(TrapCause::kMisalignedAccess),
                 addr, insn_pc);
            return false;
        }
        const auto decision =
            mpu_.check(addr, size, mem::AccessType::kWrite, privileged_);
        if (!decision.allowed) {
            trap(static_cast<std::uint32_t>(TrapCause::kMpuFault), addr,
                 insn_pc);
            return false;
        }
    }
    const mem::BusAttr attr{mem::Master::kCpu, secure_, privileged_};
    std::uint32_t io = value;
    if (bus_.access(mem::BusOp::kWrite, addr, size, io, attr) !=
        mem::BusResponse::kOk) {
        trap(static_cast<std::uint32_t>(TrapCause::kBusFault), addr, insn_pc);
        return false;
    }
    return true;
}

void Cpu::tick(sim::Cycle /*now*/) {
    ++cycles_;
    if (halted_ || waiting_) {
        // A pending enabled interrupt wakes a waiting core.
        if (waiting_) (void)take_pending_interrupt();
        return;
    }
    if (stall_ > 0) {
        --stall_;
        return;
    }
    (void)step();
}

sim::Cycle Cpu::next_activity(sim::Cycle now) {
    if (halted_) return kIdleForever;
    if (waiting_) {
        // A deliverable interrupt is taken on the very next tick;
        // otherwise the core sleeps until raise_irq clears waiting_
        // (which only happens on an actually stepped cycle).
        return irq_deliverable() ? now : kIdleForever;
    }
    if (stall_ > 0) return now + stall_;
    return now;
}

void Cpu::skip(sim::Cycle /*now*/, sim::Cycle cycles) {
    cycles_ += cycles;
    if (!halted_ && !waiting_ && stall_ > 0) {
        stall_ -= static_cast<std::uint32_t>(
            cycles < stall_ ? cycles : stall_);
    }
}

const Uop* Cpu::burst_uop(const TranslationImage& image) const noexcept {
    if (irq_deliverable()) return nullptr;
    if ((pc_ & 3u) != 0 || !image.contains(pc_)) return nullptr;
    const std::size_t idx = (pc_ - image.base) >> 2;
    const Uop& u = image.uops[idx];
    if ((image.translated[idx] & TranslationImage::kTranslated) == 0 ||
        !burst_safe(u.kind, !observers_.empty())) {
        return nullptr;
    }
    return &u;
}

bool Cpu::burst_ready(sim::Cycle /*now*/) {
    return !halted_ && !waiting_ && translation_usable() &&
           burst_uop(*translation_) != nullptr;
}

void Cpu::burst(sim::Cycle& now, sim::Cycle horizon) {
    // Each burst cycle is exactly one tick(): a stall cycle, or one
    // translated retirement through the same path as step().
    // burst_ready() proved the translation usable, and no burst-safe op
    // changes what that depends on.
    const TranslationImage& image = *translation_;
    while (now < horizon) {
        if (stall_ > 0) {
            const std::uint32_t burn = static_cast<std::uint32_t>(
                std::min<sim::Cycle>(stall_, horizon - now));
            stall_ -= burn;
            cycles_ += burn;
            now += burn;
            continue;
        }
        const Uop* next = burst_uop(image);
        if (next == nullptr) return;
        const Uop& u = *next;
        const mem::Addr insn_pc = pc_;
        const std::size_t idx = (insn_pc - image.base) >> 2;
        if ((image.translated[idx] & TranslationImage::kBlockStart) != 0) {
            elide_live_ = true;
        }
        ++cycles_;
        pc_ = insn_pc + 4;
        exec_one(u, insn_pc);
        ++instret_;
        ++translated_instret_;
        ++now;
    }
}

bool Cpu::step() {
    if (halted_) return false;
    if (take_pending_interrupt()) return true;
    if (waiting_) return true;

    const mem::Addr insn_pc = pc_;

    // Tier-1/2 fast path: retire straight from the translation, eliding
    // the per-instruction MPU execute check, bus fetch and decode. All
    // three are proven for the whole window by translation_usable() and
    // the image's `translated` flags; the write watch guarantees the
    // predecoded bytes still match memory.
    if (translation_ != nullptr && (insn_pc & 3u) == 0 &&
        translation_->contains(insn_pc)) {
        const std::size_t idx = (insn_pc - translation_->base) >> 2;
        const std::uint8_t flags = translation_->translated[idx];
        if ((flags & TranslationImage::kTranslated) != 0 &&
            translation_usable()) {
            // Reaching a superblock entry word re-arms check elision:
            // every safe bit is proven for any machine state at its
            // block's entry, so elision is sound from here until the
            // next computed control transfer.
            if ((flags & TranslationImage::kBlockStart) != 0) {
                elide_live_ = true;
            }
            // Copied by value: exec_one may store into the code window,
            // firing the write watch that frees this very image.
            const Uop u = translation_->uops[idx];
            pc_ = insn_pc + 4;
            exec_one(u, insn_pc);
            ++instret_;
            ++translated_instret_;
            return !halted_;
        }
    }

    // Tier 0: the interpreter. Fetch (with MPU execute check).
    const auto decision =
        mpu_.check(insn_pc, 4, mem::AccessType::kExecute, privileged_);
    if (!decision.allowed) {
        trap(static_cast<std::uint32_t>(TrapCause::kMpuFault), insn_pc,
             insn_pc);
        return true;
    }
    const mem::BusAttr attr{mem::Master::kCpu, secure_, privileged_};
    std::uint32_t word = 0;
    if (bus_.access(mem::BusOp::kFetch, insn_pc, 4, word, attr) !=
        mem::BusResponse::kOk) {
        trap(static_cast<std::uint32_t>(TrapCause::kBusFault), insn_pc,
             insn_pc);
        return true;
    }

    if (!is_valid_opcode(word)) {
        trap(static_cast<std::uint32_t>(TrapCause::kIllegalInstruction), word,
             insn_pc);
        return true;
    }

    pc_ = insn_pc + 4;
    exec_one(predecode(word, insn_pc), insn_pc);
    ++instret_;
    return !halted_;
}

std::uint64_t Cpu::run_steps(std::uint64_t max_steps) {
    std::uint64_t done = 0;
    while (done < max_steps) {
        if (halted_) break;
        if (take_pending_interrupt()) {
            ++done;
            continue;
        }
        if (waiting_) break;

#if defined(__GNUC__) || defined(__clang__)
        // Tier 2: computed-goto threaded dispatch. Pin the image for the
        // burst — a store below may fire the bus write watch and clear
        // translation_ mid-instruction; the local reference keeps the
        // micro-ops alive until the burst unwinds.
        const std::shared_ptr<const TranslationImage> image = translation_;
        if (image != nullptr && observers_.empty() && translation_usable()) {
            const std::uint64_t before = done;
            const Uop* const uops = image->uops.data();
            const std::uint8_t* const translated = image->translated.data();
            const mem::Addr base = image->base;
            const std::uint32_t size = image->size_bytes;
            const Uop* up = nullptr;
            mem::Addr insn_pc = 0;
            std::uint8_t wflags = 0;

            // Indexed by UopKind. System ops and kInvalid go through the
            // generic executor and end the burst (they can trap, switch
            // privilege/world or reconfigure the environment).
            static const void* const kDispatch[kUopKindCount] = {
                &&op_nop,  &&op_halt, &&op_add,   &&op_sub,  &&op_and,
                &&op_or,   &&op_xor,  &&op_shl,   &&op_shr,  &&op_sra,
                &&op_mul,  &&op_slt,  &&op_sltu,  &&op_addi, &&op_andi,
                &&op_ori,  &&op_xori, &&op_shli,  &&op_shri, &&op_lui,
                &&op_load, &&op_store, &&op_beq,  &&op_bne,  &&op_blt,
                &&op_bge,  &&op_bltu, &&op_bgeu,  &&op_jal,  &&op_jalr,
                &&op_slow, &&op_slow, &&op_slow,  &&op_slow, &&op_slow,
                &&op_slow, &&op_wfi,  &&op_slow,
            };

        dispatch:
            if (done == max_steps) goto burst_end;
            if (irq_deliverable()) goto burst_end;
            insn_pc = pc_;
            if ((insn_pc & 3u) != 0 || insn_pc - base >= size) goto burst_end;
            wflags = translated[(insn_pc - base) >> 2];
            if ((wflags & TranslationImage::kTranslated) == 0) goto burst_end;
            if ((wflags & TranslationImage::kBlockStart) != 0) {
                elide_live_ = true;  // Superblock entry: re-arm elision.
            }
            up = &uops[(insn_pc - base) >> 2];
            pc_ = insn_pc + 4;
            goto* kDispatch[static_cast<std::size_t>(up->kind)];

        op_nop:
            goto retire;
        op_halt:
            halted_ = true;
            goto retire_end;
        op_add:
            set_reg(up->rd, regs_[up->rs1] + regs_[up->rs2]);
            goto retire;
        op_sub:
            set_reg(up->rd, regs_[up->rs1] - regs_[up->rs2]);
            goto retire;
        op_and:
            set_reg(up->rd, regs_[up->rs1] & regs_[up->rs2]);
            goto retire;
        op_or:
            set_reg(up->rd, regs_[up->rs1] | regs_[up->rs2]);
            goto retire;
        op_xor:
            set_reg(up->rd, regs_[up->rs1] ^ regs_[up->rs2]);
            goto retire;
        op_shl:
            set_reg(up->rd, regs_[up->rs1] << (regs_[up->rs2] & 31));
            goto retire;
        op_shr:
            set_reg(up->rd, regs_[up->rs1] >> (regs_[up->rs2] & 31));
            goto retire;
        op_sra:
            set_reg(up->rd,
                    static_cast<std::uint32_t>(
                        as_signed(regs_[up->rs1]) >>
                        static_cast<int>(regs_[up->rs2] & 31)));
            goto retire;
        op_mul:
            set_reg(up->rd, regs_[up->rs1] * regs_[up->rs2]);
            stall_ += 2;
            goto retire;
        op_slt:
            set_reg(up->rd,
                    as_signed(regs_[up->rs1]) < as_signed(regs_[up->rs2]) ? 1
                                                                          : 0);
            goto retire;
        op_sltu:
            set_reg(up->rd, regs_[up->rs1] < regs_[up->rs2] ? 1 : 0);
            goto retire;
        op_addi:
            set_reg(up->rd, regs_[up->rs1] + up->simm);
            goto retire;
        op_andi:
            set_reg(up->rd, regs_[up->rs1] & up->imm);
            goto retire;
        op_ori:
            set_reg(up->rd, regs_[up->rs1] | up->imm);
            goto retire;
        op_xori:
            set_reg(up->rd, regs_[up->rs1] ^ up->imm);
            goto retire;
        op_shli:
            set_reg(up->rd, regs_[up->rs1] << (up->imm & 31));
            goto retire;
        op_shri:
            set_reg(up->rd, regs_[up->rs1] >> (up->imm & 31));
            goto retire;
        op_lui:
            set_reg(up->rd, static_cast<std::uint32_t>(up->imm) << 16);
            goto retire;
        op_load: {
            std::uint32_t value = 0;
            if (!load(regs_[up->rs1] + up->simm, up->size, value, insn_pc,
                      (up->safe & Uop::kSafeLoad) != 0 && env_elide_ &&
                          elide_live_)) {
                goto retire_end;  // Trapped: pc is at the handler.
            }
            set_reg(up->rd, value);
            stall_ += bus_.last_latency() - 1;
            goto retire;
        }
        op_store:
            if (!store(regs_[up->rs1] + up->simm, up->size, regs_[up->rd],
                       insn_pc,
                       (up->safe & Uop::kSafeStore) != 0 && env_elide_ &&
                           elide_live_)) {
                goto retire_end;  // Trapped: pc is at the handler.
            }
            stall_ += bus_.last_latency() - 1;
            // The store may have hit the code window and dropped the
            // translation; the dispatch header reads the pinned (stale)
            // image, so unwind and let the outer loop re-evaluate.
            if (translation_.get() != image.get()) goto retire_end;
            goto retire;
        op_beq:
            if (regs_[up->rs1] == regs_[up->rd]) pc_ = up->target;
            goto retire;
        op_bne:
            if (regs_[up->rs1] != regs_[up->rd]) pc_ = up->target;
            goto retire;
        op_blt:
            if (as_signed(regs_[up->rs1]) < as_signed(regs_[up->rd])) {
                pc_ = up->target;
            }
            goto retire;
        op_bge:
            if (as_signed(regs_[up->rs1]) >= as_signed(regs_[up->rd])) {
                pc_ = up->target;
            }
            goto retire;
        op_bltu:
            if (regs_[up->rs1] < regs_[up->rd]) pc_ = up->target;
            goto retire;
        op_bgeu:
            if (regs_[up->rs1] >= regs_[up->rd]) pc_ = up->target;
            goto retire;
        op_jal:
            set_reg(up->rd, insn_pc + 4);
            pc_ = up->target;
            goto retire;
        op_jalr: {
            const mem::Addr target = (regs_[up->rs1] + up->simm) & ~3u;
            set_reg(up->rd, insn_pc + 4);
            pc_ = target;
            elide_live_ = false;  // Computed transfer: drop elision.
            goto retire;
        }
        op_wfi:
            waiting_ = true;
            goto retire_end;
        op_slow:
            exec_one(*up, insn_pc);
            goto retire_end;

        retire:
            ++instret_;
            ++translated_instret_;
            ++done;
            goto dispatch;
        retire_end:
            ++instret_;
            ++translated_instret_;
            ++done;
            goto burst_end;

        burst_end:
            if (done != before) continue;
            // Fall through: pc left the translated window with no
            // progress — interpret one instruction below.
        }
#endif
        // Tier 0/1 for this step: the interpreter, or the translated
        // fast path inside step() when observers need synthesizing.
        if (!step()) break;
        ++done;
    }
    return done;
}

void Cpu::exec_one(const Uop& u, mem::Addr insn_pc) {
    const std::uint32_t a = reg(u.rs1);
    const std::uint32_t b = reg(u.rs2);

    switch (u.kind) {
        case UopKind::kNop:
            break;
        case UopKind::kHalt:
            halted_ = true;
            for (CpuObserver* o : observers_) o->on_halt(insn_pc);
            break;

        case UopKind::kAdd: set_reg(u.rd, a + b); break;
        case UopKind::kSub: set_reg(u.rd, a - b); break;
        case UopKind::kAnd: set_reg(u.rd, a & b); break;
        case UopKind::kOr: set_reg(u.rd, a | b); break;
        case UopKind::kXor: set_reg(u.rd, a ^ b); break;
        case UopKind::kShl: set_reg(u.rd, a << (b & 31)); break;
        case UopKind::kShr: set_reg(u.rd, a >> (b & 31)); break;
        case UopKind::kSra:
            set_reg(u.rd,
                    static_cast<std::uint32_t>(as_signed(a) >>
                                               static_cast<int>(b & 31)));
            break;
        case UopKind::kMul:
            set_reg(u.rd, a * b);
            stall_ += 2;
            break;
        case UopKind::kSlt:
            set_reg(u.rd, as_signed(a) < as_signed(b) ? 1 : 0);
            break;
        case UopKind::kSltu: set_reg(u.rd, a < b ? 1 : 0); break;

        case UopKind::kAddi: set_reg(u.rd, a + u.simm); break;
        case UopKind::kAndi: set_reg(u.rd, a & u.imm); break;
        case UopKind::kOri: set_reg(u.rd, a | u.imm); break;
        case UopKind::kXori: set_reg(u.rd, a ^ u.imm); break;
        case UopKind::kShli: set_reg(u.rd, a << (u.imm & 31)); break;
        case UopKind::kShri: set_reg(u.rd, a >> (u.imm & 31)); break;
        case UopKind::kLui:
            set_reg(u.rd, static_cast<std::uint32_t>(u.imm) << 16);
            break;

        case UopKind::kLoad: {
            std::uint32_t value = 0;
            if (load(a + u.simm, u.size, value, insn_pc,
                     (u.safe & Uop::kSafeLoad) != 0 && env_elide_ &&
                         elide_live_)) {
                set_reg(u.rd, value);
                // Memory latency (cache hit/miss aware) becomes stall
                // cycles — the architectural timing side channel.
                stall_ += bus_.last_latency() - 1;
            }
            break;
        }
        case UopKind::kStore: {
            if (store(a + u.simm, u.size, reg(u.rd), insn_pc,
                      (u.safe & Uop::kSafeStore) != 0 && env_elide_ &&
                          elide_live_)) {
                stall_ += bus_.last_latency() - 1;
            }
            break;
        }

        case UopKind::kBeq:
        case UopKind::kBne:
        case UopKind::kBlt:
        case UopKind::kBge:
        case UopKind::kBltu:
        case UopKind::kBgeu: {
            // Branches carry the second comparand in the rd field.
            const std::uint32_t lhs = a;
            const std::uint32_t rhs = reg(u.rd);
            bool taken = false;
            switch (u.kind) {
                case UopKind::kBeq: taken = lhs == rhs; break;
                case UopKind::kBne: taken = lhs != rhs; break;
                case UopKind::kBlt:
                    taken = as_signed(lhs) < as_signed(rhs);
                    break;
                case UopKind::kBge:
                    taken = as_signed(lhs) >= as_signed(rhs);
                    break;
                case UopKind::kBltu: taken = lhs < rhs; break;
                case UopKind::kBgeu: taken = lhs >= rhs; break;
                default: break;
            }
            if (taken) pc_ = u.target;
            break;
        }

        case UopKind::kJal: {
            set_reg(u.rd, insn_pc + 4);
            pc_ = u.target;
            if (u.rd == kLinkRegister) {
                for (CpuObserver* o : observers_) {
                    o->on_call(insn_pc, u.target);
                }
            }
            break;
        }
        case UopKind::kJalr: {
            const mem::Addr target = (a + u.simm) & ~3u;
            const bool is_return =
                u.rd == 0 && u.rs1 == kLinkRegister && u.simm == 0;
            set_reg(u.rd, insn_pc + 4);
            pc_ = target;
            elide_live_ = false;  // Computed transfer: drop elision.
            if (is_return) {
                for (CpuObserver* o : observers_) o->on_return(insn_pc, target);
            } else if (u.rd == kLinkRegister) {
                for (CpuObserver* o : observers_) o->on_call(insn_pc, target);
            }
            break;
        }

        case UopKind::kEcall: {
            if (ecall_handler_ && ecall_handler_(*this, u.imm)) break;
            trap(static_cast<std::uint32_t>(TrapCause::kEcall), u.imm,
                 insn_pc + 4);
            break;
        }
        case UopKind::kMret: {
            if (!privileged_) {
                trap(static_cast<std::uint32_t>(
                         TrapCause::kIllegalInstruction),
                     0, insn_pc);
                break;
            }
            std::uint32_t status = csrs_[kCsrMstatus];
            privileged_ = (status & kMstatusMpp) != 0;
            if (status & kMstatusMpie) {
                status |= kMstatusMie;
            } else {
                status &= ~kMstatusMie;
            }
            csrs_[kCsrMstatus] = status;
            pc_ = csrs_[kCsrMepc];
            elide_live_ = false;  // Computed transfer: drop elision.
            break;
        }
        case UopKind::kSmc: {
            if (!privileged_) {
                trap(static_cast<std::uint32_t>(TrapCause::kSecurityFault),
                     u.imm, insn_pc);
                break;
            }
            if (csrs_[kCsrStvec] == 0) {
                // No secure world installed.
                trap(static_cast<std::uint32_t>(TrapCause::kSecurityFault),
                     u.imm, insn_pc);
                break;
            }
            csrs_[kCsrSepc] = insn_pc + 4;
            secure_ = true;
            pc_ = csrs_[kCsrStvec];
            elide_live_ = false;  // Computed transfer: drop elision.
            notify_world_switch();
            break;
        }
        case UopKind::kSret: {
            if (!secure_ || !privileged_) {
                trap(static_cast<std::uint32_t>(TrapCause::kSecurityFault), 0,
                     insn_pc);
                break;
            }
            secure_ = false;
            pc_ = csrs_[kCsrSepc];
            elide_live_ = false;  // Computed transfer: drop elision.
            notify_world_switch();
            break;
        }
        case UopKind::kCsrr: {
            if (!privileged_) {
                trap(static_cast<std::uint32_t>(
                         TrapCause::kIllegalInstruction),
                     u.imm, insn_pc);
                break;
            }
            if (u.imm >= kCsrCount) {
                trap(static_cast<std::uint32_t>(
                         TrapCause::kIllegalInstruction),
                     u.imm, insn_pc);
                break;
            }
            if ((u.imm == kCsrStvec || u.imm == kCsrSepc) && !secure_) {
                trap(static_cast<std::uint32_t>(TrapCause::kSecurityFault),
                     u.imm, insn_pc);
                break;
            }
            set_reg(u.rd, csr(u.imm));
            break;
        }
        case UopKind::kCsrw: {
            if (!privileged_ || u.imm >= kCsrCount || u.imm == kCsrMcycle ||
                u.imm == kCsrMinstret) {
                trap(static_cast<std::uint32_t>(
                         TrapCause::kIllegalInstruction),
                     u.imm, insn_pc);
                break;
            }
            if ((u.imm == kCsrStvec || u.imm == kCsrSepc) && !secure_) {
                trap(static_cast<std::uint32_t>(TrapCause::kSecurityFault),
                     u.imm, insn_pc);
                break;
            }
            csrs_[u.imm] = reg(u.rs1);
            break;
        }
        case UopKind::kWfi:
            waiting_ = true;
            break;

        case UopKind::kInvalid:
            // Unreachable from the fast paths (invalid words are never
            // marked translated); the interpreter rejects them before
            // decode. Kept for defence in depth.
            trap(static_cast<std::uint32_t>(TrapCause::kIllegalInstruction),
                 u.raw, insn_pc);
            break;
    }
}

}  // namespace cres::isa
