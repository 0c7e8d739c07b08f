#include "rng/taus_bank.h"

#include <atomic>

#include "common/logging.h"
#include "rng/tausworthe.h"

namespace ulpdp {

namespace {

// Weyl increment decorrelating the lane dimension (same constant the
// fleet seeder uses for its node dimension).
constexpr uint64_t kLaneGamma = 0x9e3779b97f4a7c15ULL;

/** SplitMix64 finalizer (same as FleetSeeder::mix64). */
uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Process-wide test hook pinning the portable kernel. */
std::atomic<bool> g_force_scalar{false};

/**
 * The portable lockstep kernel: one taus88 step over n SoA lanes.
 * Straight-line integer ops with no cross-lane dependency, written so
 * -ftree-vectorize folds it without help; the intrinsic kernels below
 * are the same arithmetic on explicit vectors.
 */
void
stepScalar(uint32_t *s1, uint32_t *s2, uint32_t *s3, uint32_t *out,
           size_t n)
{
    for (size_t l = 0; l < n; ++l) {
        uint32_t b;
        b = ((s1[l] << 13) ^ s1[l]) >> 19;
        s1[l] = ((s1[l] & 0xfffffffeU) << 12) ^ b;
        b = ((s2[l] << 2) ^ s2[l]) >> 25;
        s2[l] = ((s2[l] & 0xfffffff8U) << 4) ^ b;
        b = ((s3[l] << 3) ^ s3[l]) >> 11;
        s3[l] = ((s3[l] & 0xfffffff0U) << 17) ^ b;
        out[l] = s1[l] ^ s2[l] ^ s3[l];
    }
}

} // anonymous namespace

#if defined(ULPDP_SIMD_AVX2)
// Defined in taus_bank_avx2.cpp (compiled with -mavx2); steps lanes
// in groups of 8, scalar-identical bit for bit.
void tausBankStepAvx2(uint32_t *s1, uint32_t *s2, uint32_t *s3,
                      uint32_t *out, size_t n);
#endif
#if defined(ULPDP_SIMD_NEON)
// Defined in taus_bank_neon.cpp; steps lanes in groups of 4.
void tausBankStepNeon(uint32_t *s1, uint32_t *s2, uint32_t *s3,
                      uint32_t *out, size_t n);
#endif

namespace {

/** Whether the host CPU can execute the compiled-in kernel. */
bool
hostSupportsSimd()
{
#if defined(ULPDP_SIMD_AVX2)
    return __builtin_cpu_supports("avx2") != 0;
#elif defined(ULPDP_SIMD_NEON)
    return true; // NEON is architectural on aarch64
#else
    return false;
#endif
}

bool
simdUsable()
{
    static const bool usable = hostSupportsSimd();
    return usable && !g_force_scalar.load(std::memory_order_relaxed);
}

} // anonymous namespace

TausBank::TausBank(const uint64_t *seeds, size_t lanes)
{
    seed(seeds, lanes);
}

void
TausBank::seed(const uint64_t *seeds, size_t lanes)
{
    if (lanes == 0 || lanes > kMaxLanes)
        fatal("TausBank: lane count must be in [1, %zu], got %zu",
              kMaxLanes, lanes);
    lanes_ = lanes;
    for (size_t l = 0; l < lanes; ++l) {
        // Exactly the scalar Tausworthe construction, per lane: the
        // SplitMix64 expansion followed by the component-minimum
        // bumps. A degenerate seed lands on the identical
        // (bump-aliased) state the scalar constructor reaches.
        Tausworthe::expandSeed(seeds[l], s1_[l], s2_[l], s3_[l]);
        if (s1_[l] < 2)
            s1_[l] += 2;
        if (s2_[l] < 8)
            s2_[l] += 8;
        if (s3_[l] < 16)
            s3_[l] += 16;
    }
    // Park unused lanes on a fixed valid state so the full-width
    // kernels never step a degenerate (all-zero) component.
    for (size_t l = lanes; l < kMaxLanes; ++l) {
        s1_[l] = 2;
        s2_[l] = 8;
        s3_[l] = 16;
    }
}

void
TausBank::nextWords(uint32_t *out)
{
#if defined(ULPDP_SIMD_AVX2)
    if (simdUsable()) {
        tausBankStepAvx2(s1_, s2_, s3_, out, lanes_);
        return;
    }
#elif defined(ULPDP_SIMD_NEON)
    if (simdUsable()) {
        tausBankStepNeon(s1_, s2_, s3_, out, lanes_);
        return;
    }
#endif
    stepScalar(s1_, s2_, s3_, out, lanes_);
}

uint32_t
TausBank::next32Lane(size_t lane)
{
    ULPDP_ASSERT(lane < lanes_);
    uint32_t word;
    stepScalar(s1_ + lane, s2_ + lane, s3_ + lane, &word, 1);
    return word;
}

void
TausBank::deriveLaneSeeds(uint64_t master, uint64_t *out, size_t n)
{
    for (size_t l = 0; l < n; ++l) {
        uint64_t s = mix64(master + kLaneGamma * (l + 1));
        // Same rejection rule as FleetSeeder::nodeSeed: remix until
        // the candidate is not degenerate, so no two lanes can alias
        // through the constructor bumps.
        while (Tausworthe::seedDegenerate(s))
            s = mix64(s + kLaneGamma);
        out[l] = s;
    }
}

bool
TausBank::simdCompiledIn()
{
#if defined(ULPDP_SIMD_AVX2) || defined(ULPDP_SIMD_NEON)
    return true;
#else
    return false;
#endif
}

bool
TausBank::simdActive()
{
    return simdCompiledIn() && simdUsable();
}

const char *
TausBank::kernelName()
{
#if defined(ULPDP_SIMD_AVX2)
    if (simdActive())
        return "avx2";
#elif defined(ULPDP_SIMD_NEON)
    if (simdActive())
        return "neon";
#endif
    return "scalar";
}

void
TausBank::forceScalarKernel(bool force)
{
    g_force_scalar.store(force, std::memory_order_relaxed);
}

} // namespace ulpdp
