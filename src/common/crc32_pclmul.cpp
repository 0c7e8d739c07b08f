/**
 * @file
 * PCLMULQDQ folding kernel for the reflected CRC-32 (0xEDB88320).
 *
 * This translation unit is the only one compiled with -mpclmul and
 * -msse4.1 (see src/common/CMakeLists.txt); fault.cpp dispatches into
 * it at runtime after a cpuid check. The method is the one of Gopal
 * et al., "Fast CRC Computation for Generic Polynomials Using
 * PCLMULQDQ Instruction" (Intel, 2009): four 128-bit lanes are folded
 * forward 64 bytes at a time by carry-less multiplication with
 * x^(512+-32) mod P, collapsed into one lane, folded 16 bytes at a
 * time, then reduced 128 -> 64 -> 32 bits and finished with a Barrett
 * reduction. Every step is an exact identity in GF(2)[x], so the
 * result equals the bytewise table CRC bit for bit.
 */

#if defined(ULPDP_SIMD_PCLMUL)

#include <cstddef>
#include <cstdint>
#include <immintrin.h>

namespace ulpdp {

namespace {

// Folding constants for the bit-reflected IEEE 802.3 polynomial P,
// each a 33-bit value x^k mod P, bit-reflected and shifted left by
// one as the reflected-domain method of Gopal et al. prescribes.
constexpr uint64_t kFold512Lo = 0x154442bd4; // x^(4*128+32) mod P
constexpr uint64_t kFold512Hi = 0x1c6e41596; // x^(4*128-32) mod P
constexpr uint64_t kFold128Lo = 0x1751997d0; // x^(128+32) mod P
constexpr uint64_t kFold128Hi = 0x0ccaa009e; // x^(128-32) mod P
constexpr uint64_t kFold64 = 0x163cd6124;    // x^64 mod P
constexpr uint64_t kPoly = 0x1db710641;      // P, reflected
constexpr uint64_t kBarrettMu = 0x1f7011641; // floor(x^64 / P), reflected

/** One fold step: carry the 128-bit lane @p x forward by the distance
 *  encoded in @p k and merge in the next 16 data bytes @p next. */
inline __m128i
fold(__m128i x, __m128i k, __m128i next)
{
    __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

inline __m128i
load(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

} // anonymous namespace

/**
 * Advance the raw (pre-inverted) CRC state @p crc over the first
 * len & ~15 bytes of @p p; the caller finishes the < 16-byte tail.
 * Requires len >= 64.
 */
uint32_t
crc32FoldPclmul(uint32_t crc, const uint8_t *p, size_t len)
{
    __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(
                                            static_cast<int>(crc)));
    __m128i x1 = load(p + 16);
    __m128i x2 = load(p + 32);
    __m128i x3 = load(p + 48);
    p += 64;
    len -= 64;

    const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
    for (; len >= 64; p += 64, len -= 64) {
        x0 = fold(x0, k512, load(p));
        x1 = fold(x1, k512, load(p + 16));
        x2 = fold(x2, k512, load(p + 32));
        x3 = fold(x3, k512, load(p + 48));
    }

    const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
    x0 = fold(x0, k128, x1);
    x0 = fold(x0, k128, x2);
    x0 = fold(x0, k128, x3);
    for (; len >= 16; p += 16, len -= 16)
        x0 = fold(x0, k128, load(p));

    // 128 -> 64 bits: fold the leading (low) qword onto the
    // trailing one.
    const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
    x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k128, 0x10),
                       _mm_srli_si128(x0, 8));
    // 64 -> 32 bits.
    x0 = _mm_xor_si128(
        _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                             _mm_cvtsi64_si128(
                                 static_cast<long long>(kFold64)),
                             0x00),
        _mm_srli_si128(x0, 4));
    // Barrett reduction of the remaining 64-bit value modulo P.
    const __m128i pmu = _mm_set_epi64x(kBarrettMu, kPoly);
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), pmu,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), pmu, 0x00);
    return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(t, x0),
                                                   1));
}

} // namespace ulpdp

#endif // ULPDP_SIMD_PCLMUL
