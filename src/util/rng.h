// Deterministic pseudo-random number generation for simulation and
// test reproducibility. NOT a cryptographic generator.
#pragma once

#include <cstdint>
#include <limits>

#include "util/bytes.h"

namespace cres {

/// xoshiro256** seeded via splitmix64. Deterministic across platforms.
class Rng {
public:
    explicit Rng(std::uint64_t seed) noexcept;

    /// Next raw 64-bit value.
    std::uint64_t next() noexcept;

    /// Uniform in [0, bound). bound == 0 returns 0.
    std::uint64_t uniform(std::uint64_t bound) noexcept;

    /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
    std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept;

    /// Uniform double in [0, 1).
    double real() noexcept;

    /// True with probability p (clamped to [0,1]).
    bool chance(double p) noexcept;

    /// Fills the span with pseudo-random bytes.
    void fill(std::span<std::uint8_t> out) noexcept;

    /// Returns n pseudo-random bytes.
    Bytes bytes(std::size_t n);

    /// Derives an independent child generator (for per-component streams).
    Rng fork() noexcept;

private:
    std::uint64_t state_[4];
};

}  // namespace cres
