// Trusted Execution Environment baseline (GlobalPlatform/TrustZone
// style). This is the *passive* trust-based architecture of the paper's
// Section IV: trusted services run on the SAME processor and store
// their secrets in the SAME physical memory as the normal world,
// protected only by the bus's secure attribute. That shared-resource
// coupling is exactly what the attacks of [17],[18],[32],[34] exploit,
// and what experiment E9 ablates against the physically isolated SSM.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "boot/measured.h"
#include "crypto/hmac.h"
#include "mem/bus.h"
#include "util/bytes.h"

namespace cres::tee {

/// TEE service identifiers (SMC function numbers).
enum class TeeService : std::uint16_t {
    kGetKey = 1,
    kStore = 2,
    kLoad = 3,
    kQuote = 4,
    kHmacSign = 5,
};

/// A signed attestation quote over the PCR composite.
struct Quote {
    crypto::Hash256 composite{};
    Bytes nonce;
    crypto::Hash256 tag{};  ///< HMAC(attestation key, composite || nonce).
};

class Tee {
public:
    /// `secure_base`/`secure_size` name the bus region (mapped
    /// secure-only) where the TEE keeps key material and storage. The
    /// TEE accesses it with secure transactions; the protection is the
    /// bus attribute — nothing more, which is the point.
    Tee(mem::Bus& bus, mem::Addr secure_base, mem::Addr secure_size);

    /// Provisions a named key into secure memory (factory step).
    /// Throws PlatformError when secure memory is exhausted.
    void provision_key(const std::string& name, BytesView key);

    /// Reads a key *as the requesting context*: the bus enforces (or
    /// fails to enforce) the secure attribute. Returns nullopt on
    /// denial or unknown key.
    [[nodiscard]] std::optional<Bytes> get_key(const std::string& name,
                                               const mem::BusAttr& requester);

    /// Secure storage (sealed blobs).
    void store(const std::string& name, BytesView data);
    [[nodiscard]] std::optional<Bytes> load(const std::string& name,
                                            const mem::BusAttr& requester);

    /// Attestation: HMAC quote over the PCR composite with the named
    /// provisioned key. Returns nullopt when the key is missing.
    [[nodiscard]] std::optional<Quote> quote(const boot::PcrBank& pcrs,
                                             BytesView nonce,
                                             const std::string& key_name);

    /// Where a named object physically lives — the attacker's shopping
    /// list once the bus attribute falls (used by the E9/E10 attacks).
    struct Placement {
        mem::Addr addr = 0;
        std::uint32_t size = 0;
    };
    [[nodiscard]] std::optional<Placement> placement(
        const std::string& name) const;

private:
    [[nodiscard]] std::optional<Bytes> read_object(
        const std::string& name, const mem::BusAttr& requester);
    void write_object(const std::string& name, BytesView data);

    mem::Bus& bus_;
    mem::Addr base_;
    mem::Addr size_;
    mem::Addr next_free_;
    std::map<std::string, Placement> directory_;
};

/// Verifier-side check of a quote.
[[nodiscard]] bool verify_quote(const Quote& quote, BytesView key,
                                const crypto::Hash256& expected_composite);

}  // namespace cres::tee
