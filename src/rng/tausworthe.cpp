#include "rng/tausworthe.h"

#include "common/logging.h"
#include "rng/health.h"

namespace ulpdp {

namespace {

/** SplitMix64 step, used only to expand the user seed. */
uint64_t
splitmix64(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // anonymous namespace

void
Tausworthe::expandSeed(uint64_t seed, uint32_t &s1, uint32_t &s2,
                       uint32_t &s3)
{
    uint64_t s = seed;
    s1 = static_cast<uint32_t>(splitmix64(s));
    s2 = static_cast<uint32_t>(splitmix64(s));
    s3 = static_cast<uint32_t>(splitmix64(s));
}

bool
Tausworthe::seedDegenerate(uint64_t seed)
{
    if (seed == 0)
        return true;
    uint32_t s1, s2, s3;
    expandSeed(seed, s1, s2, s3);
    return s1 < 2 || s2 < 8 || s3 < 16;
}

Tausworthe::Tausworthe(uint64_t seed)
{
    // taus88 component states must exceed 1, 7 and 15 respectively or
    // the component LFSR degenerates to all-zero output.
    expandSeed(seed, s1_, s2_, s3_);
    if (s1_ < 2)
        s1_ += 2;
    if (s2_ < 8)
        s2_ += 8;
    if (s3_ < 16)
        s3_ += 16;
}

uint32_t
Tausworthe::next32()
{
    // L'Ecuyer taus88 update. Each component is a linear feedback
    // shift register; the masks clear the dead low bits.
    uint32_t b;
    b = ((s1_ << 13) ^ s1_) >> 19;
    s1_ = ((s1_ & 0xfffffffeU) << 12) ^ b;
    b = ((s2_ << 2) ^ s2_) >> 25;
    s2_ = ((s2_ & 0xfffffff8U) << 4) ^ b;
    b = ((s3_ << 3) ^ s3_) >> 11;
    s3_ = ((s3_ & 0xfffffff0U) << 17) ^ b;

    uint32_t word = s1_ ^ s2_ ^ s3_;
    // Fault site: the output register. The health monitor watches the
    // post-fault word -- what the noise datapath actually consumes.
    if (fault_hook_ != nullptr)
        word = fault_hook_->urngWord(word);
    if (health_ != nullptr)
        health_->observe(word);
    return word;
}

uint32_t
Tausworthe::nextBits(int bits)
{
    ULPDP_ASSERT(bits >= 1 && bits <= 32);
    return next32() >> (32 - bits);
}

uint64_t
Tausworthe::nextUnitIndex(int bu)
{
    ULPDP_ASSERT(bu >= 1 && bu <= 32);
    uint64_t raw = nextBits(bu);
    // Map the all-zeros word to 2^bu so m is uniform on {1..2^bu} and
    // u = m * 2^-bu never hits zero (log(0) does not exist in any
    // hardware).
    return raw == 0 ? (uint64_t{1} << bu) : raw;
}

int
Tausworthe::nextSign()
{
    return (next32() >> 31) ? 1 : -1;
}

double
Tausworthe::nextUnitDouble()
{
    // (raw + 1) / 2^32 is uniform on (0, 1] with 2^-32 granularity.
    return (static_cast<double>(next32()) + 1.0) * 0x1p-32;
}

} // namespace ulpdp
