/**
 * @file
 * Streaming statistics accumulators used throughout the evaluation
 * harness: running mean/variance (Welford), min/max, and a small helper
 * for batch statistics (median, percentiles, MAE).
 */

#ifndef ULPDP_COMMON_STATS_H
#define ULPDP_COMMON_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ulpdp {

/**
 * Numerically stable streaming accumulator for count, mean, variance,
 * min and max of a sequence of doubles (Welford's algorithm).
 */
class RunningStats
{
  public:
    RunningStats() = default;

    /** Fold one sample into the accumulator. Inline: this sits on the
     *  fleet per-report hot path, where the call overhead is on the
     *  order of the arithmetic itself. */
    void add(double x)
    {
        ++count_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(count_);
        m2_ += delta * (x - mean_);
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }

    /**
     * Fold @p n copies of sample @p x in O(1) (a merge with a
     * synthetic zero-variance accumulator). Lets callers replay
     * weighted slot counts -- e.g. 1e7-node sketch totals -- without
     * 1e7 add() calls.
     */
    void addRepeated(double x, uint64_t n);

    /**
     * Accumulator holding @p count samples with the given mean, sum
     * of squared deviations @p m2 and extremes, as if they had been
     * add()ed one by one. The entry point for callers that derive the
     * moments exactly (fromGridSums(), the fleet's integer fold)
     * instead of sample by sample. A zero count yields the empty
     * accumulator.
     */
    static RunningStats fromMoments(uint64_t count, double mean,
                                    double m2, double min, double max);

    /**
     * Accumulator of @p count samples y_i * @p step on an integer
     * grid, from the exact integer sums @p sum = sum(y_i) and
     * @p sum_sq = sum(y_i^2) and the smallest and largest index
     * (@p lo, @p hi). Mean and M2 are evaluated from the integers in
     * extended precision and rounded once each, so they sit within
     * an ulp of the exact moments whatever order the samples came
     * in -- a Welford pass rounds at every sample, in sample order.
     */
    static RunningStats fromGridSums(uint64_t count, __int128 sum,
                                     __int128 sum_sq, double step,
                                     int64_t lo, int64_t hi);

    /** Merge another accumulator into this one (parallel Welford). */
    void merge(const RunningStats &other);

    /** Reset to the empty state. */
    void reset();

    /**
     * Number of samples seen so far. Explicitly 64-bit: fleet-scale
     * merges exceed 2^32 samples (1e7 nodes x hundreds of reports),
     * which a 32-bit size_t count would silently wrap.
     */
    uint64_t count() const { return count_; }

    /** Arithmetic mean; 0 when empty. */
    double mean() const { return count_ ? mean_ : 0.0; }

    /** Population variance (divide by N); 0 when fewer than 1 sample. */
    double variance() const;

    /** Sample variance (divide by N-1); 0 when fewer than 2 samples. */
    double sampleVariance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest sample seen; +inf when empty. */
    double min() const { return min_; }

    /** Largest sample seen; -inf when empty. */
    double max() const { return max_; }

  private:
    uint64_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Sum of squared deviations from the mean of @p count integers, from
 * their exact sums @p sum and @p sum_sq: sum_sq - sum^2 / count with
 * the integer part computed exactly and only the remainder r^2 / count
 * (r = sum mod count) divided in extended precision. 0 for count 0.
 */
long double centeredSquares(__int128 sum, __int128 sum_sq,
                            uint64_t count);

/**
 * Batch statistics over a materialised vector of samples.
 *
 * The evaluation harness repeatedly needs order statistics (median,
 * percentiles) which a streaming accumulator cannot provide.
 */
namespace batch {

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &v);

/** Population variance; 0 for fewer than 1 element. */
double variance(const std::vector<double> &v);

/** Population standard deviation. */
double stddev(const std::vector<double> &v);

/**
 * Median via nth_element (averages the two middle elements for even
 * sizes). The input is copied; the original vector is not reordered.
 */
double median(std::vector<double> v);

/**
 * Linear-interpolated percentile, p in [0, 100]. The input is copied.
 */
double percentile(std::vector<double> v, double p);

/** Mean absolute deviation between two equal-length vectors. */
double meanAbsError(const std::vector<double> &a,
                    const std::vector<double> &b);

} // namespace batch

} // namespace ulpdp

#endif // ULPDP_COMMON_STATS_H
