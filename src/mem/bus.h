// System bus / interconnect with address decoding, transaction security
// attributes (TrustZone-style secure/non-secure), per-region access
// control, observers (where bus monitors attach) and dynamic isolation
// (the Active Response Manager's "physically isolate a compromised
// resource" countermeasure fences regions off here).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace cres::mem {

using Addr = std::uint32_t;

/// Bus masters, carried on every transaction for attribution.
enum class Master : std::uint8_t {
    kCpu,
    kDma,
    kNic,
    kDebug,
    kSsm,      ///< The security manager's private port.
    kAttacker  ///< Used by physical-tamper attack models.
};

std::string master_name(Master m);

enum class BusOp : std::uint8_t { kRead, kWrite, kFetch };

/// Transaction attributes (the AxPROT-like sideband signals).
struct BusAttr {
    Master master = Master::kCpu;
    bool secure = false;      ///< Secure-world transaction.
    bool privileged = false;  ///< Machine-mode transaction.
};

enum class BusResponse : std::uint8_t {
    kOk,
    kDecodeError,        ///< No target at this address.
    kSecurityViolation,  ///< Non-secure access to a secure region.
    kIsolated,           ///< Region fenced off by the response manager.
    kReadOnly,           ///< Write to a read-only region.
    kDeviceError,        ///< Target-specific failure.
};

/// A completed transaction as seen by bus observers.
struct BusTransaction {
    BusOp op = BusOp::kRead;
    Addr addr = 0;
    std::uint32_t size = 4;  ///< 1, 2 or 4 bytes.
    std::uint32_t data = 0;  ///< Written value, or value read on kOk.
    BusAttr attr;
    BusResponse response = BusResponse::kOk;
    std::string region;  ///< Name of the decoded region ("" on decode error).
};

/// A slave device mapped onto the bus. Offsets are region-relative.
class BusTarget {
public:
    virtual ~BusTarget() = default;
    virtual std::string_view name() const = 0;
    /// Reads `size` bytes at `offset` into `out` (little-endian packed).
    virtual BusResponse read(Addr offset, std::uint32_t size,
                             std::uint32_t& out, const BusAttr& attr) = 0;
    virtual BusResponse write(Addr offset, std::uint32_t size,
                              std::uint32_t value, const BusAttr& attr) = 0;
    /// Latency (cycles) of the most recent access. Timing-variable
    /// targets (caches) override this; it is what makes timing side
    /// channels architecturally real in this model.
    [[nodiscard]] virtual std::uint32_t last_latency() const { return 1; }
};

/// Observer notified of every transaction (after completion). Bus
/// monitors and DIFT trackers attach here. on_transaction() must not
/// attach or detach observers.
class BusObserver {
public:
    virtual ~BusObserver() = default;
    virtual void on_transaction(const BusTransaction& txn) = 0;
};

/// Static properties of a mapped region.
struct RegionConfig {
    std::string name;
    Addr base = 0;
    Addr size = 0;
    bool secure_only = false;  ///< Reject non-secure transactions.
    bool read_only = false;    ///< Reject all writes.
};

/// The interconnect.
class Bus {
public:
    /// Maps a target. Throws MemError on overlap or zero size.
    void map(const RegionConfig& config, BusTarget& target);

    /// Issues a transaction; returns the response. Reads deliver the
    /// value through `io` (in: write data, out: read data).
    BusResponse access(BusOp op, Addr addr, std::uint32_t size,
                       std::uint32_t& io, const BusAttr& attr);

    /// Convenience wrappers (return nullopt on any non-OK response).
    std::optional<std::uint32_t> read(Addr addr, std::uint32_t size,
                                      const BusAttr& attr);
    BusResponse write(Addr addr, std::uint32_t size, std::uint32_t value,
                      const BusAttr& attr);

    /// Bulk helpers used by loaders and attestation (bypass observers
    /// when `quiet`, used only by test fixtures and the boot loader).
    bool read_block(Addr addr, std::span<std::uint8_t> out,
                    const BusAttr& attr, bool quiet = false);
    bool write_block(Addr addr, BytesView data, const BusAttr& attr,
                     bool quiet = false);

    void add_observer(BusObserver* observer);
    void remove_observer(BusObserver* observer) noexcept;

    /// Write-invalidation watch: `watch` fires after any successful bus
    /// write overlapping [base, base+size) — by any master, including
    /// DMA and physical-tamper models. The CPU's translation engine
    /// registers its code window here so self-modifying code demotes it
    /// to the interpreter. One watch slot (the executing core owns it);
    /// the callback may clear or replace the watch from within itself.
    using WriteWatch = std::function<void(Addr addr, std::uint32_t size)>;
    void set_write_watch(Addr base, Addr size, WriteWatch watch);
    void clear_write_watch() noexcept;

    /// Silent fetch probe: true when a fetch of the whole range
    /// [addr, addr+size) with `attr` would currently succeed (single
    /// region, not isolated, security attributes satisfied). No
    /// transaction is issued: observers see nothing and no counters
    /// move. The CPU's translation fast path uses this (together with
    /// config_generation()) to elide per-instruction fetch checks.
    [[nodiscard]] bool fetch_allowed(Addr addr, std::uint32_t size,
                                     const BusAttr& attr) const noexcept;

    /// Bumped on every interconnect configuration change (map,
    /// isolate_region, set_secure_only). Consumers caching decode or
    /// permission results revalidate when this moves.
    [[nodiscard]] std::uint64_t config_generation() const noexcept {
        return config_generation_;
    }

    /// Fences a region off: every subsequent access returns kIsolated.
    /// Returns false when the region name is unknown.
    bool isolate_region(const std::string& name, bool isolated = true);

    /// True when the named region is currently isolated.
    [[nodiscard]] bool is_isolated(const std::string& name) const;

    /// Changes a region's secure_only attribute at runtime. This models
    /// the reconfigurable-logic attack surface of [34]: a compromised
    /// configuration port can clear security attributes. Returns false
    /// for unknown regions.
    bool set_secure_only(const std::string& name, bool secure_only);

    /// Region metadata (for the identify/risk-assessment function).
    [[nodiscard]] std::vector<RegionConfig> regions() const;

    [[nodiscard]] std::uint64_t transaction_count() const noexcept {
        return transactions_;
    }

    /// Latency of the most recent completed access (error responses
    /// report 1). The CPU's stall model consumes this.
    [[nodiscard]] std::uint32_t last_latency() const noexcept {
        return last_latency_;
    }

private:
    struct Mapping {
        RegionConfig config;
        BusTarget* target = nullptr;
        bool isolated = false;
    };

    Mapping* decode(Addr addr, std::uint32_t size);
    [[nodiscard]] const Mapping* decode_const(Addr addr,
                                              std::uint32_t size) const;
    void notify(const BusTransaction& txn);
    void fire_write_watch(Addr addr, std::uint32_t size);

    std::vector<Mapping> mappings_;
    std::vector<BusObserver*> observers_;
    std::uint64_t transactions_ = 0;
    std::uint32_t last_latency_ = 1;
    std::uint64_t config_generation_ = 0;

    Addr watch_base_ = 0;
    Addr watch_size_ = 0;
    WriteWatch watch_;
};

}  // namespace cres::mem
