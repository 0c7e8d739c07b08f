/**
 * @file
 * Unit tests for streaming and batch statistics.
 */

#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"

namespace ulpdp {
namespace {

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleSample)
{
    RunningStats s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownSequence)
{
    RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0); // classic textbook example
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SampleVarianceUsesNMinusOne)
{
    RunningStats s;
    for (double v : {1.0, 2.0, 3.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.variance(), 2.0 / 3.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 1.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    std::mt19937_64 rng(7);
    std::normal_distribution<double> dist(5.0, 2.0);

    RunningStats all;
    RunningStats a;
    RunningStats b;
    for (int i = 0; i < 1000; ++i) {
        double v = dist(rng);
        all.add(v);
        (i < 300 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsNoop)
{
    RunningStats a;
    a.add(1.0);
    a.add(2.0);
    RunningStats empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 1.5);

    RunningStats c;
    c.merge(a);
    EXPECT_EQ(c.count(), 2u);
    EXPECT_DOUBLE_EQ(c.mean(), 1.5);
}

TEST(RunningStats, ResetClears)
{
    RunningStats s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(BatchStats, MeanOfKnownVector)
{
    EXPECT_DOUBLE_EQ(batch::mean({1.0, 2.0, 3.0, 4.0}), 2.5);
    EXPECT_DOUBLE_EQ(batch::mean({}), 0.0);
}

TEST(BatchStats, VarianceOfKnownVector)
{
    EXPECT_DOUBLE_EQ(batch::variance({2, 4, 4, 4, 5, 5, 7, 9}), 4.0);
    EXPECT_DOUBLE_EQ(batch::stddev({2, 4, 4, 4, 5, 5, 7, 9}), 2.0);
}

TEST(BatchStats, MedianOddAndEven)
{
    EXPECT_DOUBLE_EQ(batch::median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(batch::median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_DOUBLE_EQ(batch::median({7.0}), 7.0);
    EXPECT_DOUBLE_EQ(batch::median({}), 0.0);
}

TEST(BatchStats, MedianDoesNotMutateCaller)
{
    std::vector<double> v{3.0, 1.0, 2.0};
    batch::median(v);
    EXPECT_EQ(v[0], 3.0);
    EXPECT_EQ(v[1], 1.0);
}

TEST(BatchStats, PercentileEndpointsAndMiddle)
{
    std::vector<double> v{10.0, 20.0, 30.0, 40.0, 50.0};
    EXPECT_DOUBLE_EQ(batch::percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(batch::percentile(v, 100.0), 50.0);
    EXPECT_DOUBLE_EQ(batch::percentile(v, 50.0), 30.0);
    EXPECT_DOUBLE_EQ(batch::percentile(v, 25.0), 20.0);
    EXPECT_DOUBLE_EQ(batch::percentile(v, 12.5), 15.0); // interpolated
}

TEST(BatchStats, MeanAbsError)
{
    EXPECT_DOUBLE_EQ(
        batch::meanAbsError({1.0, 2.0, 3.0}, {2.0, 2.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(batch::meanAbsError({}, {}), 0.0);
}

TEST(RunningStats, AddRepeatedMatchesLoop)
{
    RunningStats looped;
    for (int i = 0; i < 1000; ++i)
        looped.add(3.25);
    looped.add(-1.5);
    RunningStats weighted;
    weighted.addRepeated(3.25, 1000);
    weighted.add(-1.5);
    EXPECT_EQ(weighted.count(), looped.count());
    EXPECT_DOUBLE_EQ(weighted.mean(), looped.mean());
    EXPECT_NEAR(weighted.variance(), looped.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(weighted.min(), looped.min());
    EXPECT_DOUBLE_EQ(weighted.max(), looped.max());
}

TEST(RunningStats, CountSurvivesPastFourBillion)
{
    // A 1e7-node fleet at hundreds of reports per node exceeds
    // uint32; the accumulator must count in 64 bits. Weighted adds
    // make the boundary reachable in O(1).
    RunningStats s;
    s.addRepeated(1.0, (uint64_t{1} << 32) + 5);
    s.addRepeated(3.0, (uint64_t{1} << 32) + 5);
    EXPECT_EQ(s.count(), (uint64_t{1} << 33) + 10);
    EXPECT_DOUBLE_EQ(s.mean(), 2.0);
    EXPECT_NEAR(s.variance(), 1.0, 1e-9);

    // Merging two half-populations crosses the boundary the same way.
    RunningStats a, b;
    a.addRepeated(5.0, uint64_t{3} << 31);
    b.addRepeated(5.0, uint64_t{3} << 31);
    a.merge(b);
    EXPECT_EQ(a.count(), uint64_t{3} << 32);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
}

TEST(RunningStats, FromGridSumsMatchesSequentialAdd)
{
    // Integer grid indices at a non-dyadic step: the exact-moment
    // entry point must agree with feeding the values one by one.
    const std::vector<int64_t> ys = {3, -1, 4, 1, -5, 9, 2, 6, 5, 3, 5};
    for (double step : {0.25, 0.1, 10.0 / 32.0}) {
        SCOPED_TRACE(step);
        RunningStats seq;
        __int128 sum = 0;
        __int128 sum_sq = 0;
        for (int64_t y : ys) {
            seq.add(static_cast<double>(y) * step);
            sum += y;
            sum_sq += static_cast<__int128>(y) * y;
        }
        RunningStats exact = RunningStats::fromGridSums(
            ys.size(), sum, sum_sq, step, -5, 9);
        EXPECT_EQ(exact.count(), seq.count());
        EXPECT_DOUBLE_EQ(exact.mean(), seq.mean());
        EXPECT_DOUBLE_EQ(exact.variance(), seq.variance());
        EXPECT_EQ(exact.min(), seq.min());
        EXPECT_EQ(exact.max(), seq.max());
    }

    // Dyadic values whose running means are all exact: Welford makes
    // no rounding at all, so the two must agree to the bit.
    RunningStats seq;
    for (int64_t y : {2, 4, 6, 8})
        seq.add(static_cast<double>(y) * 0.5);
    RunningStats exact =
        RunningStats::fromGridSums(4, 20, 120, 0.5, 2, 8);
    EXPECT_EQ(exact.mean(), seq.mean());
    EXPECT_EQ(exact.variance(), seq.variance());
    EXPECT_EQ(exact.sampleVariance(), seq.sampleVariance());
}

TEST(RunningStats, FromMomentsRoundTripsAndEmpty)
{
    RunningStats s = RunningStats::fromMoments(4, 2.5, 5.0, 1.0, 4.0);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_EQ(s.mean(), 2.5);
    EXPECT_EQ(s.variance(), 1.25);
    EXPECT_EQ(s.min(), 1.0);
    EXPECT_EQ(s.max(), 4.0);
    // It merges like any Welford accumulator.
    RunningStats seq;
    for (double v : {1.0, 2.0, 3.0, 4.0, 10.0})
        seq.add(v);
    RunningStats tail;
    tail.add(10.0);
    s.merge(tail);
    EXPECT_DOUBLE_EQ(s.mean(), seq.mean());
    EXPECT_DOUBLE_EQ(s.variance(), seq.variance());

    RunningStats empty = RunningStats::fromMoments(0, 7.0, 1.0, 0, 1);
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.mean(), 0.0);
    EXPECT_TRUE(std::isinf(empty.min()));
}

TEST(CenteredSquares, ExactOnLargeOffsets)
{
    // Values near 2^40 with a spread of a few units: sum^2 / n is
    // ~2^80 while the answer is tiny, the case a double evaluation
    // of sum_sq - sum^2 / n cancels away entirely.
    const int64_t base = int64_t{1} << 40;
    __int128 sum = 0;
    __int128 sum_sq = 0;
    for (int64_t d : {-1, 0, 2, 3}) {
        __int128 y = base + d;
        sum += y;
        sum_sq += y * y;
    }
    // Deviations from the mean 1 + base: -2, -1, 1, 2.
    EXPECT_EQ(centeredSquares(sum, sum_sq, 4), 10.0L);
    EXPECT_EQ(centeredSquares(sum, sum_sq, 0), 0.0L);
    // A remainder that does not divide: {0, 0, 1} has M2 2/3.
    EXPECT_NEAR(static_cast<double>(centeredSquares(1, 1, 3)),
                2.0 / 3.0, 1e-18);
    // Negative sums round the quotient toward zero.
    EXPECT_NEAR(static_cast<double>(centeredSquares(-1, 1, 3)),
                2.0 / 3.0, 1e-18);
}

} // anonymous namespace
} // namespace ulpdp
