#include "crypto/sha256.h"

#include <cstring>

#include "util/error.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define CRES_SHA256_HAS_SHANI 1
#include <immintrin.h>
#else
#define CRES_SHA256_HAS_SHANI 0
#endif

namespace cres::crypto {

namespace {

// The K constants are kept in this exact layout: the SHA-NI backend
// loads them four at a time with unaligned 128-bit loads.
alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

// Portable backend: rounds fully unrolled with the working variables
// rotating through registers and the message schedule kept in a 16-word
// circular window, so no 64-entry W array ever touches the stack.
#define CRES_ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))
#define CRES_S0(x) (CRES_ROTR(x, 2) ^ CRES_ROTR(x, 13) ^ CRES_ROTR(x, 22))
#define CRES_S1(x) (CRES_ROTR(x, 6) ^ CRES_ROTR(x, 11) ^ CRES_ROTR(x, 25))
#define CRES_G0(x) (CRES_ROTR(x, 7) ^ CRES_ROTR(x, 18) ^ ((x) >> 3))
#define CRES_G1(x) (CRES_ROTR(x, 17) ^ CRES_ROTR(x, 19) ^ ((x) >> 10))

#define CRES_RND(a, b, c, d, e, f, g, h, i)                              \
    do {                                                                 \
        const std::uint32_t t1 = (h) + CRES_S1(e) +                      \
                                 (((e) & (f)) ^ (~(e) & (g))) +          \
                                 kRoundConstants[i] + w[(i) & 15];       \
        const std::uint32_t t2 =                                         \
            CRES_S0(a) + (((a) & (b)) ^ ((a) & (c)) ^ ((b) & (c)));      \
        (d) += t1;                                                       \
        (h) = t1 + t2;                                                   \
    } while (0)

#define CRES_SCHED(i)                                                       \
    w[(i) & 15] += CRES_G1(w[((i) - 2) & 15]) + w[((i) - 7) & 15] +         \
                   CRES_G0(w[((i) - 15) & 15])

#define CRES_RND8(i)                              \
    CRES_RND(a, b, c, d, e, f, g, h, (i) + 0);    \
    CRES_RND(h, a, b, c, d, e, f, g, (i) + 1);    \
    CRES_RND(g, h, a, b, c, d, e, f, (i) + 2);    \
    CRES_RND(f, g, h, a, b, c, d, e, (i) + 3);    \
    CRES_RND(e, f, g, h, a, b, c, d, (i) + 4);    \
    CRES_RND(d, e, f, g, h, a, b, c, (i) + 5);    \
    CRES_RND(c, d, e, f, g, h, a, b, (i) + 6);    \
    CRES_RND(b, c, d, e, f, g, h, a, (i) + 7)

#define CRES_SCHED8(i)                                                     \
    CRES_SCHED((i) + 0); CRES_SCHED((i) + 1); CRES_SCHED((i) + 2);         \
    CRES_SCHED((i) + 3); CRES_SCHED((i) + 4); CRES_SCHED((i) + 5);         \
    CRES_SCHED((i) + 6); CRES_SCHED((i) + 7)

void compress_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) noexcept {
    std::uint32_t w[16];
    while (blocks-- > 0) {
        for (int i = 0; i < 16; ++i) w[i] = load_be32(data + i * 4);

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        CRES_RND8(0);
        CRES_RND8(8);
        CRES_SCHED8(16); CRES_RND8(16);
        CRES_SCHED8(24); CRES_RND8(24);
        CRES_SCHED8(32); CRES_RND8(32);
        CRES_SCHED8(40); CRES_RND8(40);
        CRES_SCHED8(48); CRES_RND8(48);
        CRES_SCHED8(56); CRES_RND8(56);

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
        data += 64;
    }
}

#undef CRES_SCHED8
#undef CRES_RND8
#undef CRES_SCHED
#undef CRES_RND
#undef CRES_G1
#undef CRES_G0
#undef CRES_S1
#undef CRES_S0
#undef CRES_ROTR

#if CRES_SHA256_HAS_SHANI

// SHA-NI backend. Follows the canonical two-lane (ABEF/CDGH) round
// structure for the SHA extensions; K constants come from
// kRoundConstants so the same table serves both backends.
__attribute__((target("sha,sse4.1"))) void compress_blocks_shani(
    std::uint32_t* state, const std::uint8_t* data,
    std::size_t blocks) noexcept {
    const __m128i kShuffleMask =
        _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
    const auto kconst = [](int i) {
        return _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(&kRoundConstants[i]));
    };

    __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
    __m128i state1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));

    tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
    state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
    __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);     // ABEF
    state1 = _mm_blend_epi16(state1, tmp, 0xF0);          // CDGH

    while (blocks-- > 0) {
        const __m128i abef_save = state0;
        const __m128i cdgh_save = state1;
        __m128i msg;

        // Rounds 0-3.
        __m128i msg0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
        msg0 = _mm_shuffle_epi8(msg0, kShuffleMask);
        msg = _mm_add_epi32(msg0, kconst(0));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

        // Rounds 4-7.
        __m128i msg1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
        msg1 = _mm_shuffle_epi8(msg1, kShuffleMask);
        msg = _mm_add_epi32(msg1, kconst(4));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg0 = _mm_sha256msg1_epu32(msg0, msg1);

        // Rounds 8-11.
        __m128i msg2 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
        msg2 = _mm_shuffle_epi8(msg2, kShuffleMask);
        msg = _mm_add_epi32(msg2, kconst(8));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
        msg1 = _mm_sha256msg1_epu32(msg1, msg2);

        // Rounds 12-15.
        __m128i msg3 =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
        msg3 = _mm_shuffle_epi8(msg3, kShuffleMask);

        // One scheduled quad: consumes m0, extends m1, pre-mixes m3.
#define CRES_SHANI_QUAD(m0, m1, m3, k)                        \
        msg = _mm_add_epi32(m0, kconst(k));                   \
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);  \
        tmp = _mm_alignr_epi8(m0, m3, 4);                     \
        m1 = _mm_add_epi32(m1, tmp);                          \
        m1 = _mm_sha256msg2_epu32(m1, m0);                    \
        msg = _mm_shuffle_epi32(msg, 0x0E);                   \
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg)

        CRES_SHANI_QUAD(msg3, msg0, msg2, 12);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);  // Rounds 12-15.
        CRES_SHANI_QUAD(msg0, msg1, msg3, 16);
        msg3 = _mm_sha256msg1_epu32(msg3, msg0);  // Rounds 16-19.
        CRES_SHANI_QUAD(msg1, msg2, msg0, 20);
        msg0 = _mm_sha256msg1_epu32(msg0, msg1);  // Rounds 20-23.
        CRES_SHANI_QUAD(msg2, msg3, msg1, 24);
        msg1 = _mm_sha256msg1_epu32(msg1, msg2);  // Rounds 24-27.
        CRES_SHANI_QUAD(msg3, msg0, msg2, 28);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);  // Rounds 28-31.
        CRES_SHANI_QUAD(msg0, msg1, msg3, 32);
        msg3 = _mm_sha256msg1_epu32(msg3, msg0);  // Rounds 32-35.
        CRES_SHANI_QUAD(msg1, msg2, msg0, 36);
        msg0 = _mm_sha256msg1_epu32(msg0, msg1);  // Rounds 36-39.
        CRES_SHANI_QUAD(msg2, msg3, msg1, 40);
        msg1 = _mm_sha256msg1_epu32(msg1, msg2);  // Rounds 40-43.
        CRES_SHANI_QUAD(msg3, msg0, msg2, 44);
        msg2 = _mm_sha256msg1_epu32(msg2, msg3);  // Rounds 44-47.
        CRES_SHANI_QUAD(msg0, msg1, msg3, 48);
        msg3 = _mm_sha256msg1_epu32(msg3, msg0);  // Rounds 48-51.
        CRES_SHANI_QUAD(msg1, msg2, msg0, 52);    // Rounds 52-55.
        CRES_SHANI_QUAD(msg2, msg3, msg1, 56);    // Rounds 56-59.

#undef CRES_SHANI_QUAD

        // Rounds 60-63.
        msg = _mm_add_epi32(msg3, kconst(60));
        state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
        msg = _mm_shuffle_epi32(msg, 0x0E);
        state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

        state0 = _mm_add_epi32(state0, abef_save);
        state1 = _mm_add_epi32(state1, cdgh_save);
        data += 64;
    }

    tmp = _mm_shuffle_epi32(state0, 0x1B);     // FEBA
    state1 = _mm_shuffle_epi32(state1, 0xB1);  // DCHG
    state0 = _mm_blend_epi16(tmp, state1, 0xF0);       // DCBA
    state1 = _mm_alignr_epi8(state1, tmp, 8);          // HGFE

    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#endif  // CRES_SHA256_HAS_SHANI

using CompressFn = void (*)(std::uint32_t*, const std::uint8_t*,
                            std::size_t) noexcept;

struct Backend {
    CompressFn fn;
    const char* name;
};

Backend select_backend() noexcept {
#if CRES_SHA256_HAS_SHANI
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
        return {&compress_blocks_shani, "sha-ni"};
    }
#endif
    return {&compress_blocks_portable, "portable"};
}

const Backend kBackend = select_backend();

}  // namespace

const char* sha256_backend() noexcept {
    return kBackend.name;
}

Hash256 hash_from_bytes(BytesView data) {
    if (data.size() != 32) {
        throw CryptoError("hash_from_bytes: expected 32 bytes");
    }
    Hash256 h;
    std::copy(data.begin(), data.end(), h.begin());
    return h;
}

Sha256::Sha256() noexcept : state_(kInitialState), buffer_{} {}

void Sha256::reset() noexcept {
    state_ = kInitialState;
    total_len_ = 0;
    buffer_len_ = 0;
}

Sha256::State Sha256::save_state() const noexcept {
    State s;
    s.h = state_;
    s.buffer = buffer_;
    s.total_len = total_len_;
    s.buffer_len = buffer_len_;
    return s;
}

void Sha256::restore_state(const State& state) noexcept {
    state_ = state.h;
    buffer_ = state.buffer;
    total_len_ = state.total_len;
    buffer_len_ = state.buffer_len;
}

Sha256& Sha256::update(BytesView data) noexcept {
    total_len_ += data.size();
    std::size_t offset = 0;

    if (buffer_len_ > 0) {
        const std::size_t take =
            std::min<std::size_t>(64 - buffer_len_, data.size());
        std::copy(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(take),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(buffer_len_));
        buffer_len_ += take;
        offset = take;
        if (buffer_len_ == 64) {
            kBackend.fn(state_.data(), buffer_.data(), 1);
            buffer_len_ = 0;
        }
    }

    // Multi-block fast path: every whole block left in the input is
    // compressed in one backend call, straight from the caller's buffer.
    const std::size_t whole_blocks = (data.size() - offset) / 64;
    if (whole_blocks > 0) {
        kBackend.fn(state_.data(), data.data() + offset, whole_blocks);
        offset += whole_blocks * 64;
    }

    if (offset < data.size()) {
        const std::size_t rest = data.size() - offset;
        std::copy(data.begin() + static_cast<std::ptrdiff_t>(offset),
                  data.end(), buffer_.begin());
        buffer_len_ = rest;
    }
    return *this;
}

Hash256 Sha256::finish() noexcept {
    const std::uint64_t bit_len = total_len_ * 8;

    // Pad in place: 0x80, zeros to 56 mod 64, then the 64-bit length.
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > 56) {
        std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
        kBackend.fn(state_.data(), buffer_.data(), 1);
        buffer_len_ = 0;
    }
    std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    }
    kBackend.fn(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;

    Hash256 digest;
    for (int i = 0; i < 8; ++i) {
        digest[static_cast<std::size_t>(i) * 4] =
            static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
        digest[static_cast<std::size_t>(i) * 4 + 1] =
            static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
        digest[static_cast<std::size_t>(i) * 4 + 2] =
            static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
        digest[static_cast<std::size_t>(i) * 4 + 3] =
            static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
    }
    return digest;
}

Hash256 sha256(BytesView data) noexcept {
    Sha256 h;
    h.update(data);
    return h.finish();
}

Hash256 sha256_pair(BytesView a, BytesView b) noexcept {
    Sha256 h;
    h.update(a);
    h.update(b);
    return h.finish();
}

}  // namespace cres::crypto
