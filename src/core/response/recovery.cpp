#include "core/response/recovery.h"

namespace cres::core {

RecoveryManager::RecoveryManager(isa::Cpu& cpu, mem::Ram& ram)
    : cpu_(cpu), ram_(ram) {}

void RecoveryManager::bind_metrics(obs::MetricsRegistry& registry) {
    m_checkpoints_ = &registry.counter("cres_recovery_checkpoints_total");
    m_restores_ = &registry.counter("cres_recovery_restores_total");
    m_checkpoint_age_ =
        &registry.histogram("cres_recovery_checkpoint_age_cycles");
}

const Checkpoint& RecoveryManager::take_checkpoint(sim::Cycle now) {
    Checkpoint cp;
    cp.taken_at = now;
    cp.pc = cpu_.pc();
    for (unsigned i = 0; i < 16; ++i) cp.regs[i] = cpu_.reg(i);
    for (std::uint16_t i = 0; i < isa::kCsrCount; ++i) {
        cp.csrs[i] = cpu_.csr(i);
    }
    cp.ram_image = ram_.dump(0, ram_.size());

    crypto::Sha256 h;
    h.update(cp.ram_image);
    Bytes reg_bytes;
    for (const auto r : cp.regs) {
        for (int b = 0; b < 4; ++b) {
            reg_bytes.push_back(static_cast<std::uint8_t>(r >> (8 * b)));
        }
    }
    h.update(reg_bytes);
    cp.digest = h.finish();

    checkpoint_ = std::move(cp);
    if (m_checkpoints_ != nullptr) m_checkpoints_->inc();
    return *checkpoint_;
}

bool RecoveryManager::restore(sim::Cycle now) {
    if (!checkpoint_.has_value()) return false;
    const Checkpoint& cp = *checkpoint_;
    if (m_restores_ != nullptr) {
        m_restores_->inc();
        m_checkpoint_age_->record(now - cp.taken_at);
    }

    ram_.load(0, cp.ram_image);
    cpu_.reset(cp.pc);  // Machine mode, unhalted.
    for (unsigned i = 1; i < 16; ++i) cpu_.set_reg(i, cp.regs[i]);
    for (std::uint16_t i = 0; i < isa::kCsrCount; ++i) {
        if (i == isa::kCsrMcycle || i == isa::kCsrMinstret) continue;
        cpu_.set_csr(i, cp.csrs[i]);
    }
    ++restores_;
    if (post_restore_) post_restore_();
    return true;
}

}  // namespace cres::core
