#include "tee/tee.h"

#include "util/error.h"

namespace cres::tee {

namespace {

const mem::BusAttr kTeeAttr{mem::Master::kCpu, /*secure=*/true,
                            /*privileged=*/true};

}  // namespace

Tee::Tee(mem::Bus& bus, mem::Addr secure_base, mem::Addr secure_size)
    : bus_(bus), base_(secure_base), size_(secure_size), next_free_(0) {}

void Tee::write_object(const std::string& name, BytesView data) {
    auto it = directory_.find(name);
    if (it != directory_.end() && it->second.size >= data.size()) {
        // Overwrite in place.
        if (!bus_.write_block(it->second.addr, data, kTeeAttr, true)) {
            throw PlatformError("Tee: secure memory write failed");
        }
        it->second.size = static_cast<std::uint32_t>(data.size());
        return;
    }
    if (next_free_ + data.size() > size_) {
        throw PlatformError("Tee: secure memory exhausted");
    }
    const mem::Addr addr = base_ + next_free_;
    if (!bus_.write_block(addr, data, kTeeAttr, true)) {
        throw PlatformError("Tee: secure memory write failed");
    }
    directory_[name] =
        Placement{addr, static_cast<std::uint32_t>(data.size())};
    next_free_ += static_cast<mem::Addr>(data.size());
}

std::optional<Bytes> Tee::read_object(const std::string& name,
                                      const mem::BusAttr& requester) {
    const auto it = directory_.find(name);
    if (it == directory_.end()) return std::nullopt;
    Bytes out(it->second.size);
    // The requester's own attributes go on the bus: a non-secure caller
    // is stopped by the region attribute — unless it has been tampered.
    if (!bus_.read_block(it->second.addr, out, requester)) {
        return std::nullopt;
    }
    return out;
}

void Tee::provision_key(const std::string& name, BytesView key) {
    write_object("key:" + name, key);
}

std::optional<Bytes> Tee::get_key(const std::string& name,
                                  const mem::BusAttr& requester) {
    return read_object("key:" + name, requester);
}

void Tee::store(const std::string& name, BytesView data) {
    write_object("obj:" + name, data);
}

std::optional<Bytes> Tee::load(const std::string& name,
                               const mem::BusAttr& requester) {
    return read_object("obj:" + name, requester);
}

std::optional<Quote> Tee::quote(const boot::PcrBank& pcrs, BytesView nonce,
                                const std::string& key_name) {
    const auto key = read_object("key:" + key_name, kTeeAttr);
    if (!key) return std::nullopt;

    Quote q;
    q.composite = pcrs.composite();
    q.nonce.assign(nonce.begin(), nonce.end());
    Bytes message(q.composite.begin(), q.composite.end());
    append(message, nonce);
    q.tag = crypto::hmac_sha256(*key, message);
    return q;
}

std::optional<Tee::Placement> Tee::placement(const std::string& name) const {
    auto it = directory_.find("key:" + name);
    if (it == directory_.end()) it = directory_.find("obj:" + name);
    if (it == directory_.end()) it = directory_.find(name);
    if (it == directory_.end()) return std::nullopt;
    return it->second;
}

bool verify_quote(const Quote& quote, BytesView key,
                  const crypto::Hash256& expected_composite) {
    if (!ct_equal(quote.composite, expected_composite)) return false;
    Bytes message(quote.composite.begin(), quote.composite.end());
    append(message, quote.nonce);
    return crypto::hmac_verify(key, message, quote.tag);
}

}  // namespace cres::tee
