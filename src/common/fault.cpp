#include "common/fault.h"

#include <array>

namespace ulpdp {

#if defined(ULPDP_SIMD_PCLMUL)
// Defined in crc32_pclmul.cpp (compiled with -mpclmul -msse4.1);
// advances the raw state over len & ~15 bytes, len >= 64.
uint32_t crc32FoldPclmul(uint32_t crc, const uint8_t *p, size_t len);
#endif

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slice-by-8 tables for the reflected CRC-32, built at compile time
 * (no runtime initialisation, so no first-use race). Row 0 is the
 * classic bytewise table; row k advances a byte's contribution past
 * k further zero bytes, so eight rows consume eight bytes per step.
 */
constexpr Crc32Tables
makeCrc32Tables()
{
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

constexpr Crc32Tables kCrc32 = makeCrc32Tables();

/** CRC-8 (poly 0x31) of each single byte from a zero register. */
constexpr std::array<uint8_t, 256>
makeCrc8Table()
{
    std::array<uint8_t, 256> t{};
    for (unsigned i = 0; i < 256; ++i) {
        unsigned c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 0x80u) ? (c << 1) ^ 0x31u : c << 1;
        t[i] = static_cast<uint8_t>(c);
    }
    return t;
}

constexpr std::array<uint8_t, 256> kCrc8 = makeCrc8Table();

/** Little-endian 32-bit load (one mov on the hosts we build for). */
inline uint32_t
load32le(const uint8_t *p)
{
    return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
           uint32_t{p[3]} << 24;
}

/** Slice-by-8 over the raw (pre-inverted) CRC state. */
uint32_t
crc32Slice8(uint32_t c, const uint8_t *p, size_t len)
{
    for (; len >= 8; p += 8, len -= 8) {
        uint32_t lo = load32le(p) ^ c;
        uint32_t hi = load32le(p + 4);
        c = kCrc32[7][lo & 0xFFu] ^ kCrc32[6][(lo >> 8) & 0xFFu] ^
            kCrc32[5][(lo >> 16) & 0xFFu] ^ kCrc32[4][lo >> 24] ^
            kCrc32[3][hi & 0xFFu] ^ kCrc32[2][(hi >> 8) & 0xFFu] ^
            kCrc32[1][(hi >> 16) & 0xFFu] ^ kCrc32[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = kCrc32[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c;
}

/** Whether the host CPU can execute the compiled-in folded kernel. */
bool
foldedUsable()
{
#if defined(ULPDP_SIMD_PCLMUL)
    static const bool usable = __builtin_cpu_supports("pclmul") &&
                               __builtin_cpu_supports("sse4.1");
    return usable;
#else
    return false;
#endif
}

} // anonymous namespace

uint32_t
crc32(const void *data, size_t len, uint32_t seed)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xFFFFFFFFu;
#if defined(ULPDP_SIMD_PCLMUL)
    if (len >= 64 && foldedUsable()) {
        size_t folded = len & ~size_t{15};
        c = crc32FoldPclmul(c, bytes, folded);
        bytes += folded;
        len -= folded;
    }
#endif
    return crc32Slice8(c, bytes, len) ^ 0xFFFFFFFFu;
}

uint32_t
crc32Portable(const void *data, size_t len, uint32_t seed)
{
    return crc32Slice8(seed ^ 0xFFFFFFFFu,
                       static_cast<const uint8_t *>(data), len) ^
           0xFFFFFFFFu;
}

const char *
crc32KernelName()
{
    return foldedUsable() ? "pclmul" : "slice8";
}

uint8_t
crc8(const void *data, size_t len)
{
    const uint8_t *bytes = static_cast<const uint8_t *>(data);
    uint8_t crc = 0xFF;
    for (size_t i = 0; i < len; ++i)
        crc = kCrc8[crc ^ bytes[i]];
    return crc;
}

} // namespace ulpdp
