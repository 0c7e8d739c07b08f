/**
 * @file
 * Accuracy and property tests for the hyperbolic CORDIC log unit.
 */

#include <bit>
#include <cmath>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "rng/cordic.h"

namespace ulpdp {
namespace {

TEST(Cordic, RejectsBadConfig)
{
    EXPECT_THROW(CordicLog(2), FatalError);
    EXPECT_THROW(CordicLog(100), FatalError);
    EXPECT_THROW(CordicLog(32, 4), FatalError);
    EXPECT_THROW(CordicLog(32, 60), FatalError);
}

TEST(Cordic, LnOfOneIsZero)
{
    // Convergence residual of 32 micro-rotations is ~2^-29.
    CordicLog c;
    EXPECT_NEAR(c.ln(1.0), 0.0, 1e-8);
}

TEST(Cordic, LnOfPowersOfTwoExact)
{
    CordicLog c;
    for (int e = -10; e <= 10; ++e) {
        double x = std::ldexp(1.0, e);
        EXPECT_NEAR(c.ln(x), e * std::log(2.0), 1e-8) << "e=" << e;
    }
}

TEST(Cordic, LnAccuracyOverMantissaRange)
{
    CordicLog c(40);
    for (double w = 1.0; w < 2.0; w += 0.001)
        EXPECT_NEAR(c.ln(w), std::log(w), 1e-8) << "w=" << w;
}

TEST(Cordic, LnAccuracyWideRange)
{
    CordicLog c(40);
    for (double x : {1e-6, 0.001, 0.1, 0.5, 3.0, 100.0, 1e6})
        EXPECT_NEAR(c.ln(x), std::log(x), 1e-7) << "x=" << x;
}

TEST(Cordic, RejectsNonPositive)
{
    CordicLog c;
    EXPECT_THROW(c.ln(0.0), FatalError);
    EXPECT_THROW(c.ln(-1.0), FatalError);
}

TEST(Cordic, UnitIndexMatchesLog)
{
    CordicLog c;
    int bu = 12;
    for (uint64_t m : {uint64_t{1}, uint64_t{2}, uint64_t{37},
                       uint64_t{1000}, uint64_t{4095},
                       uint64_t{4096}}) {
        double expect = std::log(std::ldexp(static_cast<double>(m),
                                            -bu));
        EXPECT_NEAR(c.lnUnitIndex(m, bu), expect, 1e-8) << "m=" << m;
    }
}

TEST(Cordic, UnitIndexOfFullScaleIsZero)
{
    CordicLog c;
    EXPECT_NEAR(c.lnUnitIndex(uint64_t{1} << 17, 17), 0.0, 1e-12);
}

TEST(Cordic, UnitIndexOfOneIsMinusBuLn2)
{
    CordicLog c;
    EXPECT_NEAR(c.lnUnitIndex(1, 17), -17.0 * std::log(2.0), 1e-8);
}

TEST(Cordic, UnitIndexRejectsOutOfRange)
{
    CordicLog c;
    EXPECT_THROW(c.lnUnitIndex(0, 8), PanicError);
    EXPECT_THROW(c.lnUnitIndex(257, 8), PanicError);
}

TEST(Cordic, UnitIndexAlwaysNonPositive)
{
    CordicLog c;
    int bu = 10;
    for (uint64_t m = 1; m <= (uint64_t{1} << bu); ++m)
        EXPECT_LE(c.lnUnitIndex(m, bu), 0.0) << "m=" << m;
}

TEST(Cordic, AccuracyImprovesWithIterations)
{
    // Worst-case |error| over a mantissa sweep should shrink as
    // iterations grow.
    auto worst = [](int iters) {
        CordicLog c(iters);
        double w_err = 0.0;
        for (double w = 1.001; w < 2.0; w += 0.01)
            w_err = std::max(w_err, std::abs(c.ln(w) - std::log(w)));
        return w_err;
    };
    double e8 = worst(8);
    double e16 = worst(16);
    double e32 = worst(32);
    EXPECT_GT(e8, e16);
    EXPECT_GT(e16, e32);
    EXPECT_LT(e32, 1e-7);
}

TEST(Cordic, RawInterfaceConsistent)
{
    CordicLog c;
    int bu = 14;
    for (uint64_t m : {uint64_t{3}, uint64_t{999}, uint64_t{16000}}) {
        double from_raw = std::ldexp(
            static_cast<double>(c.lnUnitIndexRaw(m, bu)),
            -c.fracBits());
        EXPECT_DOUBLE_EQ(from_raw, c.lnUnitIndex(m, bu));
    }
}

/**
 * The branchy micro-rotation loop, with its schedule and its
 * shift-indexed atanh table rebuilt from the construction rules: the
 * reference the sign-muxed datapath must match bit for bit.
 */
class BranchyCordic
{
  public:
    BranchyCordic(int iterations, int frac_bits) : frac_bits_(frac_bits)
    {
        double scale = std::ldexp(1.0, frac_bits);
        ln2_raw_ = std::llrint(std::log(2.0) * scale);
        int next_repeat = 4;
        for (int i = 1; schedule_.size() <
                 static_cast<size_t>(iterations); ++i) {
            schedule_.push_back(i);
            if (i == next_repeat &&
                schedule_.size() < static_cast<size_t>(iterations)) {
                schedule_.push_back(i);
                next_repeat = 3 * next_repeat + 1;
            }
        }
        atanh_.assign(static_cast<size_t>(schedule_.back()) + 1, 0);
        for (int i = 1; i <= schedule_.back(); ++i)
            atanh_[static_cast<size_t>(i)] =
                std::llrint(std::atanh(std::ldexp(1.0, -i)) * scale);
    }

    int64_t
    lnUnitIndexRaw(uint64_t m, int bu) const
    {
        int e = std::bit_width(m) - 1;
        int64_t exp_part = static_cast<int64_t>(e - bu) * ln2_raw_;
        if ((uint64_t{1} << e) == m)
            return exp_part;
        int64_t w = frac_bits_ >= e
                        ? static_cast<int64_t>(m) << (frac_bits_ - e)
                        : static_cast<int64_t>(m >> (e - frac_bits_));
        int64_t one = int64_t{1} << frac_bits_;
        int64_t x = w + one;
        int64_t y = w - one;
        int64_t z = 0;
        for (int shift : schedule_) {
            int64_t xs = x >> shift;
            int64_t ys = y >> shift;
            if (y >= 0) {
                x -= ys;
                y -= xs;
                z += atanh_[static_cast<size_t>(shift)];
            } else {
                x += ys;
                y += xs;
                z -= atanh_[static_cast<size_t>(shift)];
            }
        }
        return 2 * z + exp_part;
    }

  private:
    int frac_bits_;
    int64_t ln2_raw_;
    std::vector<int> schedule_;
    std::vector<int64_t> atanh_;
};

TEST(Cordic, BranchFreeMatchesBranchyReference)
{
    struct Case
    {
        int iterations;
        int frac_bits;
        int exhaustive_bu; // every m at every Bu up to this
    };
    const Case cases[] = {
        {32, 48, 17}, {4, 8, 12},  {4, 56, 12},  {16, 8, 12},
        {16, 56, 12}, {60, 8, 12}, {60, 56, 12},
    };
    std::mt19937_64 rng(18);
    for (const Case &k : cases) {
        CordicLog c(k.iterations, k.frac_bits);
        BranchyCordic ref(k.iterations, k.frac_bits);
        uint64_t mismatches = 0;
        for (int bu = 1; bu <= k.exhaustive_bu; ++bu) {
            for (uint64_t m = 1; m <= (uint64_t{1} << bu); ++m)
                mismatches += c.lnUnitIndexRaw(m, bu) !=
                              ref.lnUnitIndexRaw(m, bu);
        }
        for (int bu : {24, 32}) {
            std::uniform_int_distribution<uint64_t> pick(
                1, uint64_t{1} << bu);
            for (int i = 0; i < 100000; ++i) {
                uint64_t m = pick(rng);
                mismatches += c.lnUnitIndexRaw(m, bu) !=
                              ref.lnUnitIndexRaw(m, bu);
            }
        }
        EXPECT_EQ(mismatches, 0u) << "iterations=" << k.iterations
                                  << " frac_bits=" << k.frac_bits;
    }
}

} // anonymous namespace
} // namespace ulpdp
