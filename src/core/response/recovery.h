// Checkpoint/restore recovery: periodically snapshot the application
// CPU and RAM into SSM-private storage; on compromise, roll the whole
// compute context back to the last known-good state (Table I "Recovery
// Method: roll-back"). The checkpoint digest lets a verifier confirm
// which state was restored.
#pragma once

#include <array>
#include <optional>

#include "crypto/sha256.h"
#include "isa/cpu.h"
#include "mem/ram.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace cres::core {

struct Checkpoint {
    sim::Cycle taken_at = 0;
    mem::Addr pc = 0;
    std::array<std::uint32_t, 16> regs{};
    std::array<std::uint32_t, isa::kCsrCount> csrs{};
    Bytes ram_image;
    crypto::Hash256 digest{};
};

class RecoveryManager {
public:
    /// Snapshots cover `ram` (the application memory) and `cpu`.
    RecoveryManager(isa::Cpu& cpu, mem::Ram& ram);

    /// Takes a new known-good checkpoint (replacing the previous one).
    const Checkpoint& take_checkpoint(sim::Cycle now);

    /// Registers checkpoint/restore counters and the checkpoint-age-at-
    /// restore histogram (how stale the restored state was, in cycles).
    void bind_metrics(obs::MetricsRegistry& registry);

    [[nodiscard]] bool has_checkpoint() const noexcept {
        return checkpoint_.has_value();
    }
    [[nodiscard]] const std::optional<Checkpoint>& checkpoint() const noexcept {
        return checkpoint_;
    }

    /// Restores CPU + RAM to the checkpoint; the CPU resumes (unhalted,
    /// machine mode) at the checkpointed pc. Returns false when no
    /// checkpoint exists.
    bool restore(sim::Cycle now);

    [[nodiscard]] std::uint32_t restores() const noexcept { return restores_; }

    /// Invoked after every successful restore (e.g. to clear the CFI
    /// shadow stack, whose frames no longer match the restored state).
    void set_post_restore(std::function<void()> hook) {
        post_restore_ = std::move(hook);
    }

private:
    isa::Cpu& cpu_;
    mem::Ram& ram_;
    std::function<void()> post_restore_;
    std::optional<Checkpoint> checkpoint_;
    std::uint32_t restores_ = 0;

    // --- Observability (null until bind_metrics) -------------------------
    obs::Counter* m_checkpoints_ = nullptr;
    obs::Counter* m_restores_ = nullptr;
    obs::Histogram* m_checkpoint_age_ = nullptr;
};

}  // namespace cres::core
