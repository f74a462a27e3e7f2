// SHA-256 (FIPS 180-4), implemented from scratch. This is the platform's
// security-grade hash: firmware measurement, evidence-log chaining,
// HMAC/HKDF, and the hash-based signature schemes all build on it.
//
// The compression core has two interchangeable backends selected once at
// startup: a portable unrolled scalar implementation and, on x86-64 parts
// that advertise the SHA extensions, a SHA-NI implementation. Both are
// bit-identical (guarded by the FIPS 180-4 known-answer tests) and both
// consume whole runs of blocks straight from the caller's buffer, so bulk
// update() never stages input through the internal 64-byte buffer.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.h"

namespace cres::crypto {

/// A 256-bit digest.
using Hash256 = std::array<std::uint8_t, 32>;

/// Parses a 32-byte buffer into a digest. Throws CryptoError on size.
Hash256 hash_from_bytes(BytesView data);

/// Incremental SHA-256.
class Sha256 {
public:
    /// A snapshot of the full digest state, including any buffered
    /// partial block. Lets callers capture a midstate once and replay it
    /// many times (HMAC ipad/opad caching, prefix-keyed hashing).
    struct State {
        std::array<std::uint32_t, 8> h{};
        std::array<std::uint8_t, 64> buffer{};
        std::uint64_t total_len = 0;
        std::size_t buffer_len = 0;
    };

    Sha256() noexcept;

    /// Absorbs more input.
    Sha256& update(BytesView data) noexcept;

    /// Finalizes and returns the digest. The object must not be reused
    /// afterwards except via reset() / restore_state().
    [[nodiscard]] Hash256 finish() noexcept;

    /// Restores the initial state.
    void reset() noexcept;

    /// Exports the current digest state (midstate export).
    [[nodiscard]] State save_state() const noexcept;

    /// Resumes hashing from a previously saved midstate.
    void restore_state(const State& state) noexcept;

private:
    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, 64> buffer_;
    std::uint64_t total_len_ = 0;
    std::size_t buffer_len_ = 0;
};

/// One-shot SHA-256.
Hash256 sha256(BytesView data) noexcept;

/// SHA-256 over the concatenation of two buffers (no copies).
Hash256 sha256_pair(BytesView a, BytesView b) noexcept;

/// Name of the compression backend selected at startup ("sha-ni" or
/// "portable"). Exposed for benchmarks and diagnostics.
[[nodiscard]] const char* sha256_backend() noexcept;

}  // namespace cres::crypto
