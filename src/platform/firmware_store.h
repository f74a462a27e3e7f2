// Fleet-shared firmware byte store.
//
// Companion to the TranslationCache: where that deduplicates the
// *derived* superblock translation of an image, this deduplicates the
// image bytes themselves. Fleet nodes running the same measured
// firmware hand their app RAM one immutable shared copy of the code
// (mem::Ram::set_backing) instead of each holding a private one; a
// guest write promotes only the touched 4 KiB page to a private copy.
// A million-node estate running one control loop therefore stores the
// firmware once, not a million times — the memory half of the E13d
// bytes-per-node budget (docs/BENCHMARKS.md).
//
// Only immutable bytes are shared. Every node keeps private execution
// state, so the fleet's bit-identical-at-any-thread-count guarantee is
// unaffected (docs/FLEET.md).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace cres::platform {

class FirmwareStore {
public:
    /// Returns the canonical shared copy of `code` for `key` (the
    /// TranslationCache::key_for content key), adding it on the first
    /// request. Thread-safe: fleet workers enrol and reboot nodes
    /// concurrently.
    std::shared_ptr<const Bytes> get_or_add(const crypto::Hash256& key,
                                            BytesView code);

    [[nodiscard]] std::uint64_t hits() const;
    [[nodiscard]] std::uint64_t misses() const;
    [[nodiscard]] std::size_t size() const;
    /// Bytes held by the store itself (what the whole fleet shares).
    [[nodiscard]] std::size_t stored_bytes() const;

private:
    mutable std::mutex mutex_;
    std::map<crypto::Hash256, std::shared_ptr<const Bytes>> images_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace cres::platform
