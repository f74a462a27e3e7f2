#include "mem/bus.h"

#include <algorithm>

#include "util/error.h"

namespace cres::mem {

std::string master_name(Master m) {
    switch (m) {
        case Master::kCpu: return "cpu";
        case Master::kDma: return "dma";
        case Master::kNic: return "nic";
        case Master::kDebug: return "debug";
        case Master::kSsm: return "ssm";
        case Master::kAttacker: return "attacker";
    }
    return "?";
}

void Bus::map(const RegionConfig& config, BusTarget& target) {
    if (config.size == 0) {
        throw MemError("Bus::map: zero-sized region " + config.name);
    }
    const Addr end = config.base + config.size - 1;
    if (end < config.base) {
        throw MemError("Bus::map: region wraps address space: " + config.name);
    }
    for (const auto& m : mappings_) {
        const Addr m_end = m.config.base + m.config.size - 1;
        const bool overlaps = config.base <= m_end && m.config.base <= end;
        if (overlaps) {
            throw MemError("Bus::map: region " + config.name +
                           " overlaps " + m.config.name);
        }
        if (m.config.name == config.name) {
            throw MemError("Bus::map: duplicate region name " + config.name);
        }
    }
    mappings_.push_back(Mapping{config, &target, false});
    ++config_generation_;
}

Bus::Mapping* Bus::decode(Addr addr, std::uint32_t size) {
    if (addr + size < addr) return nullptr;  // Address-space wrap.
    for (auto& m : mappings_) {
        const Addr end = m.config.base + m.config.size;
        if (addr >= m.config.base && addr + size <= end) return &m;
    }
    return nullptr;
}

const Bus::Mapping* Bus::decode_const(Addr addr, std::uint32_t size) const {
    if (addr + size < addr) return nullptr;  // Address-space wrap.
    for (const auto& m : mappings_) {
        const Addr end = m.config.base + m.config.size;
        if (addr >= m.config.base && addr + size <= end) return &m;
    }
    return nullptr;
}

bool Bus::fetch_allowed(Addr addr, std::uint32_t size,
                        const BusAttr& attr) const noexcept {
    if (size == 0) return false;
    const Mapping* mapping = decode_const(addr, size);
    if (mapping == nullptr || mapping->isolated) return false;
    return !mapping->config.secure_only || attr.secure;
}

void Bus::set_write_watch(Addr base, Addr size, WriteWatch watch) {
    watch_base_ = base;
    watch_size_ = size;
    watch_ = std::move(watch);
}

void Bus::clear_write_watch() noexcept {
    watch_base_ = 0;
    watch_size_ = 0;
    watch_ = nullptr;
}

void Bus::fire_write_watch(Addr addr, std::uint32_t size) {
    if (!watch_ || watch_size_ == 0) return;
    // Overlap test in 64-bit space: the watched window never wraps
    // (it mirrors a mapped region), the access was already decoded.
    const std::uint64_t a0 = addr;
    const std::uint64_t a1 = a0 + size;
    const std::uint64_t w0 = watch_base_;
    const std::uint64_t w1 = w0 + watch_size_;
    if (a1 <= w0 || a0 >= w1) return;
    // Copy first: the callback may clear or replace the watch (the
    // translation engine drops itself on invalidation).
    const WriteWatch fire = watch_;
    fire(addr, size);
}

void Bus::notify(const BusTransaction& txn) {
    for (BusObserver* o : observers_) o->on_transaction(txn);
}

BusResponse Bus::access(BusOp op, Addr addr, std::uint32_t size,
                        std::uint32_t& io, const BusAttr& attr) {
    ++transactions_;
    BusTransaction txn;
    txn.op = op;
    txn.addr = addr;
    txn.size = size;
    txn.data = io;
    txn.attr = attr;

    Mapping* mapping = decode(addr, size);
    if (mapping == nullptr) {
        txn.response = BusResponse::kDecodeError;
        notify(txn);
        return txn.response;
    }
    txn.region = mapping->config.name;

    if (mapping->isolated) {
        txn.response = BusResponse::kIsolated;
        notify(txn);
        return txn.response;
    }
    if (mapping->config.secure_only && !attr.secure) {
        txn.response = BusResponse::kSecurityViolation;
        notify(txn);
        return txn.response;
    }
    if (mapping->config.read_only && op == BusOp::kWrite) {
        txn.response = BusResponse::kReadOnly;
        notify(txn);
        return txn.response;
    }

    const Addr offset = addr - mapping->config.base;
    if (op == BusOp::kWrite) {
        txn.response = mapping->target->write(offset, size, io, attr);
    } else {
        txn.response = mapping->target->read(offset, size, io, attr);
        txn.data = io;
    }
    last_latency_ = mapping->target->last_latency();
    notify(txn);
    if (op == BusOp::kWrite && txn.response == BusResponse::kOk) {
        fire_write_watch(addr, size);
    }
    return txn.response;
}

std::optional<std::uint32_t> Bus::read(Addr addr, std::uint32_t size,
                                       const BusAttr& attr) {
    std::uint32_t value = 0;
    if (access(BusOp::kRead, addr, size, value, attr) != BusResponse::kOk) {
        return std::nullopt;
    }
    return value;
}

BusResponse Bus::write(Addr addr, std::uint32_t size, std::uint32_t value,
                       const BusAttr& attr) {
    std::uint32_t io = value;
    return access(BusOp::kWrite, addr, size, io, attr);
}

bool Bus::read_block(Addr addr, std::span<std::uint8_t> out,
                     const BusAttr& attr, bool quiet) {
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::uint32_t value = 0;
        if (quiet) {
            Mapping* mapping = decode(addr + static_cast<Addr>(i), 1);
            if (mapping == nullptr || mapping->isolated) return false;
            if (mapping->config.secure_only && !attr.secure) return false;
            const Addr offset = addr + static_cast<Addr>(i) - mapping->config.base;
            if (mapping->target->read(offset, 1, value, attr) !=
                BusResponse::kOk) {
                return false;
            }
        } else {
            if (access(BusOp::kRead, addr + static_cast<Addr>(i), 1, value,
                       attr) != BusResponse::kOk) {
                return false;
            }
        }
        out[i] = static_cast<std::uint8_t>(value);
    }
    return true;
}

bool Bus::write_block(Addr addr, BytesView data, const BusAttr& attr,
                      bool quiet) {
    for (std::size_t i = 0; i < data.size(); ++i) {
        std::uint32_t value = data[i];
        if (quiet) {
            Mapping* mapping = decode(addr + static_cast<Addr>(i), 1);
            if (mapping == nullptr || mapping->isolated) return false;
            if (mapping->config.secure_only && !attr.secure) return false;
            if (mapping->config.read_only) return false;
            const Addr offset = addr + static_cast<Addr>(i) - mapping->config.base;
            if (mapping->target->write(offset, 1, value, attr) !=
                BusResponse::kOk) {
                return false;
            }
            fire_write_watch(addr + static_cast<Addr>(i), 1);
        } else {
            if (access(BusOp::kWrite, addr + static_cast<Addr>(i), 1, value,
                       attr) != BusResponse::kOk) {
                return false;
            }
        }
    }
    return true;
}

void Bus::add_observer(BusObserver* observer) {
    if (observer == nullptr) {
        throw MemError("Bus::add_observer: null observer");
    }
    observers_.push_back(observer);
}

void Bus::remove_observer(BusObserver* observer) noexcept {
    std::erase(observers_, observer);
}

bool Bus::isolate_region(const std::string& name, bool isolated) {
    for (auto& m : mappings_) {
        if (m.config.name == name) {
            m.isolated = isolated;
            ++config_generation_;
            return true;
        }
    }
    return false;
}

bool Bus::is_isolated(const std::string& name) const {
    for (const auto& m : mappings_) {
        if (m.config.name == name) return m.isolated;
    }
    return false;
}

bool Bus::set_secure_only(const std::string& name, bool secure_only) {
    for (auto& m : mappings_) {
        if (m.config.name == name) {
            m.config.secure_only = secure_only;
            ++config_generation_;
            return true;
        }
    }
    return false;
}

std::vector<RegionConfig> Bus::regions() const {
    std::vector<RegionConfig> out;
    out.reserve(mappings_.size());
    for (const auto& m : mappings_) out.push_back(m.config);
    return out;
}

}  // namespace cres::mem
