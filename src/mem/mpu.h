// Memory Protection Unit. The CPU consults it on every access before
// the transaction reaches the bus. Supports region permissions (R/W/X,
// user-accessible), an enable switch, and locking (after the secure
// boot stage locks the MPU, reconfiguration requires reset).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/bus.h"

namespace cres::mem {

enum class AccessType : std::uint8_t { kRead, kWrite, kExecute };

struct MpuRegion {
    std::string name;
    Addr base = 0;
    Addr size = 0;
    bool read = false;
    bool write = false;
    bool execute = false;
    bool user = false;  ///< Accessible from unprivileged mode.
};

struct MpuDecision {
    bool allowed = false;
    std::string region;  ///< Matching region name, "" when unmapped.
};

class Mpu {
public:
    /// Adds a region. Throws MemError when locked, on zero size, or
    /// when the region is both writable and executable (W^X is a
    /// platform invariant the monitors assume).
    void add_region(const MpuRegion& region);

    /// Removes all regions. Throws MemError when locked.
    void clear();

    /// When disabled every access is allowed (pre-boot state).
    void set_enabled(bool enabled) noexcept {
        enabled_ = enabled;
        ++generation_;
    }
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Prevents further configuration changes until reset().
    void lock() noexcept { locked_ = true; }
    [[nodiscard]] bool locked() const noexcept { return locked_; }

    /// Clears regions and unlocks (power-on reset).
    void reset() noexcept;

    /// Checks an access. Privileged mode may use non-user regions.
    [[nodiscard]] MpuDecision check(Addr addr, std::uint32_t size,
                                    AccessType type,
                                    bool privileged) const noexcept;

    /// Silent permission probe: same verdict as check() but never
    /// counted as a fault. Used by the translation engine to validate
    /// its execute-permission cache without polluting the memory
    /// monitor's telemetry with speculative denials.
    [[nodiscard]] bool allows(Addr addr, std::uint32_t size, AccessType type,
                              bool privileged) const noexcept;

    /// Bumped on every configuration change (region add/clear, enable
    /// toggle, reset). Consumers caching MPU-derived permissions (the
    /// CPU's translation fast path) revalidate when this moves.
    [[nodiscard]] std::uint64_t generation() const noexcept {
        return generation_;
    }

    [[nodiscard]] const std::vector<MpuRegion>& regions() const noexcept {
        return regions_;
    }

    /// Count of denied accesses (telemetry for the memory monitor).
    [[nodiscard]] std::uint64_t fault_count() const noexcept {
        return faults_;
    }

private:
    std::vector<MpuRegion> regions_;
    bool enabled_ = false;
    bool locked_ = false;
    std::uint64_t generation_ = 0;
    mutable std::uint64_t faults_ = 0;
};

}  // namespace cres::mem
