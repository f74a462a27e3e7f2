#include "platform/analysis_cache.h"

namespace cres::platform {

std::shared_ptr<const analysis::Report> AnalysisCache::get_or_analyze(
    const crypto::Hash256& key, BytesView code, mem::Addr base,
    mem::Addr entry) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = reports_.find(key);
        if (it != reports_.end()) {
            ++hits_;
            return it->second;
        }
    }
    // Analyze outside the lock: the fixpoint is deterministic, so two
    // nodes racing on the same key produce identical reports and the
    // loser's copy is just dropped.
    auto report = std::make_shared<const analysis::Report>(
        verifier_.analyze(code, base, entry));
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = reports_.emplace(key, std::move(report));
    if (inserted) {
        ++misses_;
    } else {
        ++hits_;
    }
    return it->second;
}

std::uint64_t AnalysisCache::hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t AnalysisCache::misses() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t AnalysisCache::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return reports_.size();
}

}  // namespace cres::platform
