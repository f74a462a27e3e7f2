#include "mem/mpu.h"

#include "util/error.h"

namespace cres::mem {

void Mpu::add_region(const MpuRegion& region) {
    if (locked_) throw MemError("Mpu: locked");
    if (region.size == 0) throw MemError("Mpu: zero-sized region");
    if (region.write && region.execute) {
        throw MemError("Mpu: region " + region.name +
                       " violates W^X (writable and executable)");
    }
    regions_.push_back(region);
    ++generation_;
}

void Mpu::clear() {
    if (locked_) throw MemError("Mpu: locked");
    regions_.clear();
    ++generation_;
}

void Mpu::reset() noexcept {
    locked_ = false;
    enabled_ = false;
    regions_.clear();
    ++generation_;
}

MpuDecision Mpu::check(Addr addr, std::uint32_t size, AccessType type,
                       bool privileged) const noexcept {
    if (!enabled_) return MpuDecision{true, ""};
    for (const auto& r : regions_) {
        const Addr end = r.base + r.size;
        if (addr < r.base || addr + size > end) continue;
        if (!privileged && !r.user) continue;
        const bool permitted = (type == AccessType::kRead && r.read) ||
                               (type == AccessType::kWrite && r.write) ||
                               (type == AccessType::kExecute && r.execute);
        if (permitted) return MpuDecision{true, r.name};
        ++faults_;
        return MpuDecision{false, r.name};
    }
    ++faults_;
    return MpuDecision{false, ""};
}

bool Mpu::allows(Addr addr, std::uint32_t size, AccessType type,
                 bool privileged) const noexcept {
    if (!enabled_) return true;
    for (const auto& r : regions_) {
        const Addr end = r.base + r.size;
        if (addr < r.base || addr + size > end) continue;
        if (!privileged && !r.user) continue;
        return (type == AccessType::kRead && r.read) ||
               (type == AccessType::kWrite && r.write) ||
               (type == AccessType::kExecute && r.execute);
    }
    return false;
}

}  // namespace cres::mem
