/**
 * @file
 * Wide Tausworthe lane bank: W independent taus88 streams stepped in
 * lockstep.
 *
 * The table-driven sampler (rng/laplace_table.h) turned each noise
 * draw into pure data flow -- one URNG word, one lookup, no branches
 * that depend on the drawn value -- which leaves the scalar taus88
 * step as the serial bottleneck of every bulk simulation. A single
 * taus88 stream cannot be vectorized (each word depends on the
 * previous state), but a *fleet* draws from millions of independent
 * streams, so the batch layer simply steps W of them side by side: a
 * structure-of-arrays bank of component states (s1[W], s2[W], s3[W])
 * advanced by one shift/xor kernel over all lanes.
 *
 * Lane-determinism rule (the contract everything above relies on):
 * lane l of a bank seeded with seeds[l] produces *bit-identical*
 * output to a scalar Tausworthe(seeds[l]) -- same SplitMix64 seed
 * expansion, same component minimum bumps, same update recurrence,
 * same word order. The SIMD kernels are alternative schedules of the
 * exact same integer arithmetic, so scalar and SIMD builds, any lane
 * width, and any scalar/batched interleaving all observe the same
 * per-stream words. Tests prove this per lane over millions of draws;
 * the fleet fingerprint tests prove it end to end.
 *
 * Kernel selection: the portable scalar kernel is always compiled and
 * is written so the compiler's auto-vectorizer can fold it; when the
 * ULPDP_SIMD CMake option is ON an AVX2 (x86-64) or NEON (aarch64)
 * kernel is additionally built and chosen at runtime when the CPU
 * supports it. forceScalarKernel() pins the portable kernel for
 * equivalence tests.
 *
 * The bank deliberately has no fault-hook or health-monitor seams:
 * those model per-device output-register hardware and belong to the
 * scalar Tausworthe a DP-Box owns. The bank is host-simulation
 * machinery; simulations that need hooked streams take the scalar
 * path.
 */

#ifndef ULPDP_RNG_TAUS_BANK_H
#define ULPDP_RNG_TAUS_BANK_H

#include <cstddef>
#include <cstdint>

namespace ulpdp {

/** W parallel taus88 streams advanced in lockstep (SoA layout). */
class TausBank
{
  public:
    /** Widest bank a single step call supports (two AVX2 vectors;
     *  also the auto lane width of the fleet batch path). */
    static constexpr size_t kMaxLanes = 16;

    /** Empty bank; seed() before stepping. */
    TausBank() = default;

    /** Seed @p lanes lanes from @p seeds (see seed()). */
    TausBank(const uint64_t *seeds, size_t lanes);

    /**
     * (Re)seed the bank with one 64-bit seed per lane. Each lane
     * applies exactly the scalar Tausworthe construction: SplitMix64
     * expansion of seeds[l] into three component words, then the same
     * component-minimum bumps (s1 >= 2, s2 >= 8, s3 >= 16). A
     * degenerate seed (Tausworthe::seedDegenerate) is therefore
     * bumped to the identical state the scalar constructor would
     * reach -- bulk seeders must still reject such seeds, because the
     * bump aliases two distinct seeds onto one stream; see
     * deriveLaneSeeds() for a derivation that never emits one.
     */
    void seed(const uint64_t *seeds, size_t lanes);

    /** Active lane count. */
    size_t lanes() const { return lanes_; }

    /**
     * Advance every lane by one step and write lane l's output word
     * to out[l] (out must hold lanes() words). Equivalent to calling
     * Tausworthe::next32() once on each lane's scalar twin.
     */
    void nextWords(uint32_t *out);

    /**
     * Advance *one* lane by one step and return its word, leaving the
     * other lanes untouched. This is the escape hatch for per-lane
     * rejection fixups (a truncated rank draw that overshot redraws
     * on its own stream only) and is bit-compatible with nextWords():
     * a lane observes the same word sequence however the two entry
     * points are interleaved.
     */
    uint32_t next32Lane(size_t lane);

    /** Component states of one lane (tests compare against the
     *  scalar twin). */
    uint32_t s1(size_t lane) const { return s1_[lane]; }
    uint32_t s2(size_t lane) const { return s2_[lane]; }
    uint32_t s3(size_t lane) const { return s3_[lane]; }

    /**
     * Derive @p n decorrelated, never-degenerate lane seeds from one
     * master seed (SplitMix64 finalizer over a Weyl sequence, with
     * the same remix-until-clean rejection rule as the fleet's
     * per-node seeder). Deterministic in (master, n).
     */
    static void deriveLaneSeeds(uint64_t master, uint64_t *out,
                                size_t n);

    /** Whether an AVX2/NEON kernel was compiled into this build
     *  (the ULPDP_SIMD CMake option, on a supported arch). */
    static bool simdCompiledIn();

    /** Whether nextWords() currently runs the intrinsic kernel
     *  (compiled in, CPU supports it, not forced scalar). */
    static bool simdActive();

    /** Name of the active kernel: "avx2", "neon" or "scalar". */
    static const char *kernelName();

    /**
     * Test hook: pin the portable scalar kernel even when a SIMD
     * kernel is available, so equivalence tests can diff the two
     * schedules inside one binary. Affects the whole process.
     */
    static void forceScalarKernel(bool force);

  private:
    // SoA component state, aligned for the vector kernels. Lanes
    // beyond lanes_ hold valid-but-unused generator state so the
    // kernels can always run full width.
    alignas(64) uint32_t s1_[kMaxLanes] = {};
    alignas(64) uint32_t s2_[kMaxLanes] = {};
    alignas(64) uint32_t s3_[kMaxLanes] = {};
    size_t lanes_ = 0;
};

} // namespace ulpdp

#endif // ULPDP_RNG_TAUS_BANK_H
