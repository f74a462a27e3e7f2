#include "platform/firmware_store.h"

namespace cres::platform {

std::shared_ptr<const Bytes> FirmwareStore::get_or_add(
    const crypto::Hash256& key, BytesView code) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = images_.find(key);
    if (it != images_.end()) {
        ++hits_;
        return it->second;
    }
    ++misses_;
    auto image = std::make_shared<const Bytes>(code.begin(), code.end());
    images_.emplace(key, image);
    return image;
}

std::uint64_t FirmwareStore::hits() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t FirmwareStore::misses() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t FirmwareStore::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return images_.size();
}

std::size_t FirmwareStore::stored_bytes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto& [key, image] : images_) total += image->size();
    return total;
}

}  // namespace cres::platform
