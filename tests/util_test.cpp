// Unit tests for the util library: bytes, hex, serialization, RNG.
#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/serial.h"

namespace cres {
namespace {

TEST(Bytes, HexRoundTrip) {
    const Bytes data = {0x00, 0x01, 0xab, 0xff};
    EXPECT_EQ(to_hex(data), "0001abff");
    EXPECT_EQ(from_hex("0001abff"), data);
    EXPECT_EQ(from_hex("0001ABFF"), data);
}

TEST(Bytes, HexEmpty) {
    EXPECT_EQ(to_hex({}), "");
    EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, FromHexRejectsOddLength) {
    EXPECT_THROW(from_hex("abc"), Error);
}

TEST(Bytes, FromHexRejectsNonHex) {
    EXPECT_THROW(from_hex("zz"), Error);
    EXPECT_THROW(from_hex("0g"), Error);
}

TEST(Bytes, StringRoundTrip) {
    EXPECT_EQ(to_string(to_bytes("hello")), "hello");
}

TEST(Bytes, Concat) {
    const Bytes a = {1, 2};
    const Bytes b = {3};
    const Bytes c = concat({a, b});
    EXPECT_EQ(c, (Bytes{1, 2, 3}));
}

TEST(Bytes, SecureWipeZeroes) {
    Bytes secret = {1, 2, 3, 4};
    secure_wipe(secret);
    EXPECT_EQ(secret, (Bytes{0, 0, 0, 0}));
}

TEST(Bytes, CtEqual) {
    const Bytes a = {1, 2, 3};
    const Bytes b = {1, 2, 3};
    const Bytes c = {1, 2, 4};
    const Bytes d = {1, 2};
    EXPECT_TRUE(ct_equal(a, b));
    EXPECT_FALSE(ct_equal(a, c));
    EXPECT_FALSE(ct_equal(a, d));
}

TEST(Serial, PrimitivesRoundTrip) {
    BinaryWriter w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.str("hello");
    w.blob(Bytes{9, 8, 7});

    BinaryReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.blob(), (Bytes{9, 8, 7}));
    EXPECT_TRUE(r.done());
}

TEST(Serial, LittleEndianLayout) {
    BinaryWriter w;
    w.u32(0x04030201);
    EXPECT_EQ(w.data(), (Bytes{0x01, 0x02, 0x03, 0x04}));
}

TEST(Serial, TruncatedInputThrows) {
    const Bytes short_buf = {0x01};
    BinaryReader r(short_buf);
    EXPECT_THROW(r.u32(), Error);
}

TEST(Serial, OversizedBlobLengthThrows) {
    BinaryWriter w;
    w.u32(1000);  // Claims 1000 bytes, provides none.
    BinaryReader r(w.data());
    EXPECT_THROW(r.blob(), Error);
}

TEST(Serial, TruncatedMultiByteReadConsumesNothing) {
    // A failed u16/u32/u64 must leave the cursor at the field start so
    // a caller that catches the error is not mid-field.
    const Bytes buf = {0x01, 0x02, 0x03};
    BinaryReader r(buf);
    EXPECT_THROW(r.u32(), Error);
    EXPECT_EQ(r.remaining(), 3u);
    EXPECT_THROW(r.u64(), Error);
    EXPECT_EQ(r.remaining(), 3u);
    EXPECT_EQ(r.u16(), 0x0201);  // Unaffected by the failed attempts.
    EXPECT_THROW(r.u16(), Error);
    EXPECT_EQ(r.remaining(), 1u);
    EXPECT_EQ(r.u8(), 0x03);
    EXPECT_TRUE(r.done());
}

TEST(Serial, EveryTruncationPointOfACompositeRecordThrows) {
    BinaryWriter w;
    w.u32(0xfeedface);
    w.str("name");
    w.u64(7);
    w.blob(Bytes{1, 2, 3, 4});
    const Bytes full = w.data();

    // Full record parses; every proper prefix throws instead of
    // reading out of bounds or looping.
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        BinaryReader r(BytesView(full.data(), cut));
        EXPECT_THROW(
            {
                (void)r.u32();
                (void)r.str();
                (void)r.u64();
                (void)r.blob();
            },
            Error)
            << "prefix length " << cut;
    }
    BinaryReader ok(full);
    EXPECT_EQ(ok.u32(), 0xfeedfaceu);
    EXPECT_EQ(ok.str(), "name");
    EXPECT_EQ(ok.u64(), 7u);
    EXPECT_EQ(ok.blob(), (Bytes{1, 2, 3, 4}));
    EXPECT_TRUE(ok.done());
}

TEST(Serial, RawReadIsBoundsCheckedBeforeAllocation) {
    const Bytes buf = {0x01, 0x02};
    BinaryReader r(buf);
    // A huge claimed size must throw, not attempt a giant allocation.
    EXPECT_THROW((void)r.raw(static_cast<std::size_t>(-1)), Error);
    EXPECT_EQ(r.remaining(), 2u);
}

TEST(Rng, Deterministic) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i) {
        if (a.next() != b.next()) any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformWithinBound) {
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.uniform(10), 10u);
    }
    EXPECT_EQ(rng.uniform(0), 0u);
}

TEST(Rng, RangeInclusive) {
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval) {
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChanceExtremes) {
    Rng rng(11);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ChanceApproximatesProbability) {
    Rng rng(13);
    int hits = 0;
    const int trials = 10000;
    for (int i = 0; i < trials; ++i) {
        if (rng.chance(0.25)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.03);
}

TEST(Rng, FillCoversBuffer) {
    Rng rng(5);
    Bytes buf(100, 0);
    rng.fill(buf);
    int nonzero = 0;
    for (auto b : buf) {
        if (b != 0) ++nonzero;
    }
    EXPECT_GT(nonzero, 50);  // Overwhelmingly likely for random bytes.
}

TEST(Rng, ForkIndependent) {
    Rng parent(9);
    Rng child = parent.fork();
    EXPECT_NE(parent.next(), child.next());
}

}  // namespace
}  // namespace cres
