// Crypto primitives tested against published vectors: SHA-256 (FIPS 180-4),
// HMAC-SHA256 (RFC 4231) and HKDF (RFC 5869), plus key store and
// monotonic counter behaviour.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/monotonic.h"
#include "crypto/sha256.h"
#include "util/error.h"

namespace cres::crypto {
namespace {

std::string hex(const Hash256& h) { return to_hex(h); }

TEST(Sha256, EmptyString) {
    EXPECT_EQ(hex(sha256({})),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(hex(sha256(to_bytes("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(hex(sha256(to_bytes(
                  "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
    Sha256 h;
    const Bytes chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(hex(h.finish()),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
    const Bytes data = to_bytes("The quick brown fox jumps over the lazy dog");
    for (std::size_t split = 0; split <= data.size(); ++split) {
        Sha256 h;
        h.update(BytesView(data).subspan(0, split));
        h.update(BytesView(data).subspan(split));
        EXPECT_EQ(h.finish(), sha256(data)) << "split=" << split;
    }
}

TEST(Sha256, ExactBlockBoundaries) {
    // 55/56/63/64/65 bytes exercise every padding branch.
    for (std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
        const Bytes data(n, 0x5a);
        Sha256 h;
        h.update(data);
        EXPECT_EQ(h.finish(), sha256(data)) << "n=" << n;
    }
}

// Explicit digests (hashlib references) for the padding boundary
// lengths, so a backend that is merely *self*-consistent still fails.
TEST(Sha256, BoundaryLengthKats) {
    const std::pair<std::size_t, const char*> vectors[] = {
        {55, "5f25f149aa92e3e13093aed8216072fae623f35e26ca605b6cce17e04b7ccf44"},
        {56, "301c69927f1603720c9f847b7e5e3bef77a7b9f75344490fe9039f13c36b842a"},
        {63, "939765b120205cbedae2ed31256b1967c38b6bdd9b0220535224cbc0b906d333"},
        {64, "cc7321cce5e4409bd8077d58422e1214969059bbd40b4eeb0de0a642f40f7282"},
        {65, "b8de0db62b6c87db61345504a8038bf973d987e8d2111abd8beb407c0bf3d9db"},
    };
    for (const auto& [n, digest] : vectors) {
        EXPECT_EQ(hex(sha256(Bytes(n, 0x5a))), digest) << "n=" << n;
    }
}

// Multi-block inputs drive the whole-blocks fast path that compresses
// straight from the caller's buffer (2, 3 and 15+ block messages).
TEST(Sha256, MultiBlockKats) {
    const std::pair<std::size_t, const char*> vectors[] = {
        {119, "a96851d641310ce032ff832b6f08125878deed2a825fe515dd1ba414afe95f7e"},
        {120, "60ec7f280e45d0c7bf77b70ff16958b1c1701a9fb7faa12b798207cf120ec6ee"},
        {128, "349d65e9ba1de7b0a13f9a3eadcc5b0202f15d6008fe9477f2a7b80f6194b20f"},
        {192, "707e97e6f8645df5d806382e6701c8e2e2166017f60a56e6aac0c2d2dbbb2281"},
        {1000, "8fe15844cfeedd35f5dc30a9fa5ed38afd849dbe4f8dcae5642d934be0afb13d"},
    };
    for (const auto& [n, digest] : vectors) {
        EXPECT_EQ(hex(sha256(Bytes(n, 0x5a))), digest) << "n=" << n;
        // Also feed the same message byte-at-a-time through the
        // buffered slow path; both paths must agree with the vector.
        Sha256 h;
        const Bytes data(n, 0x5a);
        for (std::size_t i = 0; i < n; ++i) {
            h.update(BytesView(data.data() + i, 1));
        }
        EXPECT_EQ(hex(h.finish()), digest) << "bytewise n=" << n;
    }
}

TEST(Sha256, SaveRestoreStateRoundTrip) {
    const Bytes head = to_bytes("The quick brown fox ");
    const Bytes tail = to_bytes("jumps over the lazy dog");
    Bytes all = head;
    all.insert(all.end(), tail.begin(), tail.end());

    Sha256 h;
    h.update(head);
    const Sha256::State mid = h.save_state();

    // The saved midstate can be resumed in a different hasher...
    Sha256 other;
    other.update(to_bytes("unrelated garbage"));
    other.restore_state(mid);
    other.update(tail);
    EXPECT_EQ(other.finish(), sha256(all));

    // ...and re-restored into the original any number of times.
    h.restore_state(mid);
    h.update(tail);
    EXPECT_EQ(h.finish(), sha256(all));
}

TEST(Sha256, SaveStateAtBlockBoundary) {
    const Bytes block(64, 0xab);
    Sha256 h;
    h.update(block);
    const Sha256::State mid = h.save_state();
    Sha256 resumed;
    resumed.restore_state(mid);
    resumed.update(block);
    EXPECT_EQ(resumed.finish(), sha256(Bytes(128, 0xab)));
}

TEST(Sha256, BackendNameIsKnown) {
    const std::string backend = sha256_backend();
    EXPECT_TRUE(backend == "portable" || backend == "sha-ni") << backend;
}

TEST(Sha256, ResetRestoresInitialState) {
    Sha256 h;
    h.update(to_bytes("garbage"));
    (void)h.finish();
    h.reset();
    h.update(to_bytes("abc"));
    EXPECT_EQ(hex(h.finish()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, PairMatchesConcat) {
    const Bytes a = to_bytes("hello ");
    const Bytes b = to_bytes("world");
    EXPECT_EQ(sha256_pair(a, b), sha256(to_bytes("hello world")));
}

TEST(HashFromBytes, RejectsWrongSize) {
    EXPECT_THROW(hash_from_bytes(Bytes(31, 0)), CryptoError);
    EXPECT_THROW(hash_from_bytes(Bytes(33, 0)), CryptoError);
    EXPECT_NO_THROW(hash_from_bytes(Bytes(32, 0)));
}

// RFC 4231 test case 1.
TEST(Hmac, Rfc4231Case1) {
    const Bytes key(20, 0x0b);
    const Bytes msg = to_bytes("Hi There");
    EXPECT_EQ(hex(hmac_sha256(key, msg)),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(Hmac, Rfc4231Case2) {
    const Bytes key = to_bytes("Jefe");
    const Bytes msg = to_bytes("what do ya want for nothing?");
    EXPECT_EQ(hex(hmac_sha256(key, msg)),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
TEST(Hmac, Rfc4231Case3) {
    const Bytes key(20, 0xaa);
    const Bytes msg(50, 0xdd);
    EXPECT_EQ(hex(hmac_sha256(key, msg)),
              "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 6: key longer than one block.
TEST(Hmac, Rfc4231Case6LongKey) {
    const Bytes key(131, 0xaa);
    const Bytes msg = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
    EXPECT_EQ(hex(hmac_sha256(key, msg)),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test case 4: 25-byte incrementing key, 50x 0xcd data.
TEST(Hmac, Rfc4231Case4) {
    Bytes key(25);
    for (std::size_t i = 0; i < key.size(); ++i) {
        key[i] = static_cast<std::uint8_t>(i + 1);
    }
    const Bytes msg(50, 0xcd);
    EXPECT_EQ(hex(hmac_sha256(key, msg)),
              "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 7: long key AND long data, through the keyed path.
TEST(HmacKeyed, Rfc4231Case7LongKeyLongData) {
    const Bytes key(131, 0xaa);
    const Bytes msg = to_bytes(
        "This is a test using a larger than block-size key and a larger "
        "than block-size data. The key needs to be hashed before being "
        "used by the HMAC algorithm.");
    const HmacSha256 keyed(key);
    EXPECT_EQ(hex(keyed.tag(msg)),
              "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// A keyed object must be bit-identical to the one-shot function for
// every key-length class (short, block-sized, hashed-down long key).
TEST(HmacKeyed, MatchesOneShot) {
    for (const std::size_t key_len : {1u, 20u, 63u, 64u, 65u, 131u, 200u}) {
        const Bytes key(key_len, 0x7c);
        const HmacSha256 keyed(key);
        for (const std::size_t msg_len : {0u, 1u, 55u, 64u, 100u, 1000u}) {
            const Bytes msg(msg_len, 0x3d);
            EXPECT_EQ(keyed.tag(msg), hmac_sha256(key, msg))
                << "key_len=" << key_len << " msg_len=" << msg_len;
        }
    }
}

TEST(HmacKeyed, TagIsRepeatable) {
    const Bytes key = to_bytes("seal-key");
    const Bytes msg = to_bytes("evidence record");
    const HmacSha256 keyed(key);
    const Hash256 first = keyed.tag(msg);
    // The cached midstates are not consumed by use.
    EXPECT_EQ(keyed.tag(msg), first);
    EXPECT_EQ(keyed.tag(msg), first);
}

TEST(HmacKeyed, TagPairMatchesConcat) {
    const Bytes key = to_bytes("k");
    const Bytes a = to_bytes("previous block | ");
    const Bytes b = to_bytes("info tail");
    Bytes joined = a;
    joined.insert(joined.end(), b.begin(), b.end());
    const HmacSha256 keyed(key);
    EXPECT_EQ(keyed.tag_pair(a, b), hmac_sha256(key, joined));
}

TEST(HmacKeyed, VerifyAcceptsAndRejects) {
    const HmacSha256 keyed(to_bytes("k"));
    const Bytes msg = to_bytes("m");
    const Hash256 tag = keyed.tag(msg);
    EXPECT_TRUE(keyed.verify(msg, tag));
    Hash256 bad = tag;
    bad[0] ^= 1;
    EXPECT_FALSE(keyed.verify(msg, bad));
    EXPECT_FALSE(keyed.verify(to_bytes("m2"), tag));
    EXPECT_FALSE(keyed.verify(msg, BytesView(tag.data(), 31)));
}

TEST(HmacKeyed, SetKeyRekeys) {
    HmacSha256 keyed(to_bytes("old-key"));
    const Bytes msg = to_bytes("message");
    const Hash256 old_tag = keyed.tag(msg);
    keyed.set_key(to_bytes("new-key"));
    EXPECT_NE(keyed.tag(msg), old_tag);
    EXPECT_EQ(keyed.tag(msg), hmac_sha256(to_bytes("new-key"), msg));
}

TEST(Hmac, VerifyAcceptsAndRejects) {
    const Bytes key = to_bytes("k");
    const Bytes msg = to_bytes("m");
    const Hash256 tag = hmac_sha256(key, msg);
    EXPECT_TRUE(hmac_verify(key, msg, tag));
    Hash256 bad = tag;
    bad[0] ^= 1;
    EXPECT_FALSE(hmac_verify(key, msg, bad));
    EXPECT_FALSE(hmac_verify(key, to_bytes("m2"), tag));
}

// RFC 5869 test case 1.
TEST(Hkdf, Rfc5869Case1) {
    const Bytes ikm(22, 0x0b);
    const Bytes salt = from_hex("000102030405060708090a0b0c");
    const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
    const Hash256 prk = hkdf_extract(salt, ikm);
    EXPECT_EQ(hex(prk),
              "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
    const Bytes okm = hkdf_expand(prk, info, 42);
    EXPECT_EQ(to_hex(okm),
              "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
              "34007208d5b887185865");
}

TEST(Hkdf, ExpandRejectsTooLong) {
    const Hash256 prk{};
    EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), CryptoError);
}

TEST(Hkdf, LabelsProduceIndependentKeys) {
    const Bytes ikm = to_bytes("device-root-secret");
    const Bytes salt = to_bytes("salt");
    const Bytes k1 = hkdf(ikm, salt, "attestation", 32);
    const Bytes k2 = hkdf(ikm, salt, "evidence-seal", 32);
    EXPECT_NE(k1, k2);
    EXPECT_EQ(k1, hkdf(ikm, salt, "attestation", 32));
}

TEST(KeyStore, InstallAndRead) {
    KeyStore ks;
    ks.install("root", to_bytes("secret"), KeyAccess::kAny);
    const auto got = ks.read("root", KeyRequester::kNormal);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, to_bytes("secret"));
}

TEST(KeyStore, AccessControl) {
    KeyStore ks;
    ks.install("boot", to_bytes("b"), KeyAccess::kSecureOnly);
    ks.install("ssm", to_bytes("s"), KeyAccess::kSsmOnly);

    EXPECT_FALSE(ks.read("boot", KeyRequester::kNormal).has_value());
    EXPECT_TRUE(ks.read("boot", KeyRequester::kSecure).has_value());
    EXPECT_TRUE(ks.read("boot", KeyRequester::kSsm).has_value());

    EXPECT_FALSE(ks.read("ssm", KeyRequester::kNormal).has_value());
    EXPECT_FALSE(ks.read("ssm", KeyRequester::kSecure).has_value());
    EXPECT_TRUE(ks.read("ssm", KeyRequester::kSsm).has_value());

    EXPECT_EQ(ks.denied_reads(), 3u);
}

TEST(KeyStore, ZeroiseRemovesMaterial) {
    KeyStore ks;
    ks.install("k", to_bytes("material"), KeyAccess::kAny);
    EXPECT_TRUE(ks.zeroise("k"));
    EXPECT_FALSE(ks.read("k", KeyRequester::kSsm).has_value());
    EXPECT_FALSE(ks.contains("k"));
    EXPECT_FALSE(ks.zeroise("k"));  // Already gone.
}

TEST(KeyStore, ZeroiseAll) {
    KeyStore ks;
    ks.install("a", to_bytes("1"), KeyAccess::kAny);
    ks.install("b", to_bytes("2"), KeyAccess::kSsmOnly);
    EXPECT_EQ(ks.live_count(), 2u);
    EXPECT_EQ(ks.zeroise_all(), 2u);
    EXPECT_EQ(ks.live_count(), 0u);
    EXPECT_EQ(ks.zeroise_all(), 0u);
}

TEST(KeyStore, MissingKeyReads) {
    KeyStore ks;
    EXPECT_FALSE(ks.read("nope", KeyRequester::kSsm).has_value());
    EXPECT_FALSE(ks.contains("nope"));
}

TEST(MonotonicCounter, NeverRegresses) {
    MonotonicCounterBank bank;
    EXPECT_EQ(bank.value("fw"), 0u);
    EXPECT_TRUE(bank.advance("fw", 5));
    EXPECT_EQ(bank.value("fw"), 5u);
    EXPECT_FALSE(bank.advance("fw", 3));
    EXPECT_EQ(bank.value("fw"), 5u);
    EXPECT_EQ(bank.tamper_attempts(), 1u);
    EXPECT_TRUE(bank.advance("fw", 5));  // Equal is allowed.
}

TEST(MonotonicCounter, Increment) {
    MonotonicCounterBank bank;
    EXPECT_EQ(bank.increment("boot"), 1u);
    EXPECT_EQ(bank.increment("boot"), 2u);
    EXPECT_EQ(bank.value("boot"), 2u);
}

TEST(MonotonicCounter, SerializeRoundTrip) {
    MonotonicCounterBank bank;
    bank.advance("fw", 7);
    bank.increment("boot");
    (void)bank.advance("fw", 1);  // Tamper attempt recorded.

    const Bytes blob = bank.serialize();
    const MonotonicCounterBank restored =
        MonotonicCounterBank::deserialize(blob);
    EXPECT_EQ(restored.value("fw"), 7u);
    EXPECT_EQ(restored.value("boot"), 1u);
    EXPECT_EQ(restored.tamper_attempts(), 1u);
}

}  // namespace
}  // namespace cres::crypto
