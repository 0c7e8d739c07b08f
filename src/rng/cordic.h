/**
 * @file
 * Hyperbolic CORDIC natural-logarithm unit.
 *
 * The DP-Box computes the inverse-CDF logarithm of Eq. (17) with a
 * CORDIC logarithm block ("By implementing a CORDIC logarithm function
 * ... the entire logarithm computation can be completed in a single
 * cycle", Section IV-B). CORDIC needs only shifts, adds and a small
 * arctanh constant table -- no multiplier -- which is why it is the
 * standard choice for ULP fixed-point transcendental hardware.
 *
 * This class is a bit-accurate integer model: all iteration state is
 * held in 64-bit fixed point and the only floating-point involvement
 * is building the constant table at construction. Like the hardware,
 * it picks each micro-rotation's direction with a sign-bit mux and
 * conditional negation, so the loop has no data-dependent branch.
 */

#ifndef ULPDP_RNG_CORDIC_H
#define ULPDP_RNG_CORDIC_H

#include <cstdint>
#include <vector>

namespace ulpdp {

/**
 * Vectoring-mode hyperbolic CORDIC computing ln(x) via the identity
 * ln(w) = 2 * atanh((w - 1) / (w + 1)), with the argument normalised
 * into [1, 2) and the exponent folded back in as a multiple of ln 2.
 */
class CordicLog
{
  public:
    /**
     * @param iterations Number of CORDIC micro-rotations (4..60).
     *        Accuracy is roughly 2^-iterations; the default of 32
     *        leaves the quantizer, not the CORDIC, as the dominant
     *        error source for every configuration in the paper.
     * @param frac_bits Internal fixed-point fraction bits (8..56).
     */
    explicit CordicLog(int iterations = 32, int frac_bits = 48);

    /** Number of micro-rotations configured. */
    int iterations() const { return iterations_; }

    /** Internal fraction bits. */
    int fracBits() const { return frac_bits_; }

    /**
     * Natural log of u = m * 2^-bu for m in {1, ..., 2^bu}, i.e. of
     * the URNG output of Eq. (9), computed entirely in integer
     * arithmetic. Result is <= 0.
     */
    double lnUnitIndex(uint64_t m, int bu) const;

    /**
     * Same as lnUnitIndex() but returning the raw internal fixed-point
     * word (Q frac_bits). This is what the downstream scaling stage of
     * the DP-Box datapath consumes.
     */
    int64_t lnUnitIndexRaw(uint64_t m, int bu) const;

    /** Natural log of an arbitrary positive double (for testing). */
    double ln(double x) const;

  private:
    /**
     * Core vectoring iteration: returns atanh(y0/x0) in Q frac_bits
     * fixed point given x0, y0 already in Q frac_bits.
     */
    int64_t atanhRatioRaw(int64_t x0, int64_t y0) const;

    /** ln of a mantissa w in [1, 2) given in Q frac_bits; raw result. */
    int64_t lnMantissaRaw(int64_t w_raw) const;

    int iterations_;
    int frac_bits_;
    int64_t ln2_raw_;
    /** CORDIC iteration schedule (shift amount per micro-rotation,
     *  with the standard repeats at i = 4, 13, 40 for convergence). */
    std::vector<int> schedule_;
    /** atanh(2^-schedule_[k]) in Q frac_bits, one per micro-rotation
     *  k, so the loop reads both arrays by step. */
    std::vector<int64_t> step_atanh_;
};

} // namespace ulpdp

#endif // ULPDP_RNG_CORDIC_H
