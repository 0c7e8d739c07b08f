/**
 * @file
 * Runtime-parameterised uniform quantizer.
 *
 * The privacy analysis (Section III-A2 of the paper) sweeps the RNG
 * output resolution: By output bits with quantization step Delta, so
 * representable noise values are k*Delta for
 * k in {-2^(By-1), ..., 2^(By-1)-1}. A compile-time fixed-point type
 * cannot express a swept resolution, hence this runtime quantizer.
 */

#ifndef ULPDP_FIXED_QUANTIZER_H
#define ULPDP_FIXED_QUANTIZER_H

#include <cstdint>

namespace ulpdp {

/**
 * Uniform mid-tread quantizer: rounds to the nearest multiple of a
 * step Delta and saturates to a By-bit signed index range.
 */
class Quantizer
{
  public:
    /**
     * @param delta Quantization step (> 0).
     * @param bits Output word length By in bits (2..62); indices span
     *             [-2^(By-1), 2^(By-1)-1].
     */
    Quantizer(double delta, int bits);

    /** Quantization step Delta. */
    double delta() const { return delta_; }

    /** Output word length in bits. */
    int bits() const { return bits_; }

    /** Smallest representable index. */
    int64_t minIndex() const { return min_index_; }

    /** Largest representable index. */
    int64_t maxIndex() const { return max_index_; }

    /** Smallest representable value: minIndex() * delta(). */
    double minValue() const { return static_cast<double>(min_index_) *
                                     delta_; }

    /** Largest representable value: maxIndex() * delta(). */
    double maxValue() const { return static_cast<double>(max_index_) *
                                     delta_; }

    /**
     * Round @p x to the nearest index k (ties away from zero, as a
     * hardware round-half-up stage on the magnitude produces) and
     * saturate to the representable range.
     */
    int64_t quantizeToIndex(double x) const;

    /** Round @p x to the nearest representable value k * Delta. */
    double quantize(double x) const;

    /** Reconstruct the value for index @p k (no range check). */
    double value(int64_t k) const { return static_cast<double>(k) *
                                           delta_; }

  private:
    double delta_;
    int bits_;
    int64_t min_index_;
    int64_t max_index_;
};

} // namespace ulpdp

#endif // ULPDP_FIXED_QUANTIZER_H
