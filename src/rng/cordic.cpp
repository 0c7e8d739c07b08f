#include "rng/cordic.h"

#include <bit>
#include <cmath>

#include "common/logging.h"

namespace ulpdp {

CordicLog::CordicLog(int iterations, int frac_bits)
    : iterations_(iterations), frac_bits_(frac_bits)
{
    if (iterations < 4 || iterations > 60)
        fatal("CordicLog: iterations must be in [4, 60], got %d",
              iterations);
    if (frac_bits < 8 || frac_bits > 56)
        fatal("CordicLog: frac_bits must be in [8, 56], got %d",
              frac_bits);

    double scale = std::ldexp(1.0, frac_bits_);
    ln2_raw_ = std::llrint(std::log(2.0) * scale);

    // Hyperbolic CORDIC only converges if certain iterations are
    // repeated: shift amounts 4, 13, 40, 121, ... (k_{j+1} = 3 k_j + 1)
    // appear twice in the schedule.
    int next_repeat = 4;
    for (int i = 1; schedule_.size() <
             static_cast<size_t>(iterations_); ++i) {
        schedule_.push_back(i);
        if (i == next_repeat &&
            schedule_.size() < static_cast<size_t>(iterations_)) {
            schedule_.push_back(i);
            next_repeat = 3 * next_repeat + 1;
        }
    }

    step_atanh_.reserve(schedule_.size());
    for (int shift : schedule_) {
        double t = std::ldexp(1.0, -shift);
        step_atanh_.push_back(std::llrint(std::atanh(t) * scale));
    }
}

int64_t
CordicLog::atanhRatioRaw(int64_t x0, int64_t y0) const
{
    int64_t x = x0;
    int64_t y = y0;
    int64_t z = 0;
    // Every micro-rotation turns toward y = 0. As in silicon, its
    // direction is a mux on the sign bit of y rather than a branch:
    // neg is 0 for y >= 0 and all ones for y < 0, and (v ^ neg) - neg
    // is v or -v accordingly.
    const int *shift = schedule_.data();
    const int64_t *angle = step_atanh_.data();
    for (size_t k = 0, n = schedule_.size(); k < n; ++k) {
        int64_t neg = y >> 63;
        int64_t xs = x >> shift[k];
        int64_t ys = y >> shift[k];
        x -= (ys ^ neg) - neg;
        y -= (xs ^ neg) - neg;
        z += (angle[k] ^ neg) - neg;
    }
    return z;
}

int64_t
CordicLog::lnMantissaRaw(int64_t w_raw) const
{
    int64_t one = int64_t{1} << frac_bits_;
    ULPDP_ASSERT(w_raw >= one && w_raw < 2 * one);
    // ln(w) = 2 * atanh((w - 1) / (w + 1)); vectoring mode computes
    // atanh(y0 / x0) directly from x0 = w + 1, y0 = w - 1.
    int64_t z = atanhRatioRaw(w_raw + one, w_raw - one);
    return 2 * z;
}

int64_t
CordicLog::lnUnitIndexRaw(uint64_t m, int bu) const
{
    ULPDP_ASSERT(bu >= 1 && bu <= 32);
    ULPDP_ASSERT(m >= 1 && m <= (uint64_t{1} << bu));
    // Normalise m = w * 2^e with mantissa w in [1, 2):
    // ln(m * 2^-bu) = ln(w) + (e - bu) * ln 2.
    int e = std::bit_width(m) - 1;
    if ((uint64_t{1} << e) == m) {
        // Exact power of two: mantissa is 1, ln(w) = 0.
        return static_cast<int64_t>(e - bu) * ln2_raw_;
    }
    int64_t w_raw;
    if (frac_bits_ >= e) {
        w_raw = static_cast<int64_t>(m) << (frac_bits_ - e);
    } else {
        w_raw = static_cast<int64_t>(m >> (e - frac_bits_));
    }
    return lnMantissaRaw(w_raw) +
           static_cast<int64_t>(e - bu) * ln2_raw_;
}

double
CordicLog::lnUnitIndex(uint64_t m, int bu) const
{
    return std::ldexp(static_cast<double>(lnUnitIndexRaw(m, bu)),
                      -frac_bits_);
}

double
CordicLog::ln(double x) const
{
    if (!(x > 0.0))
        fatal("CordicLog::ln: argument must be positive, got %g", x);
    int e;
    double frac = std::frexp(x, &e); // x = frac * 2^e, frac in [0.5, 1)
    double w = frac * 2.0;           // w in [1, 2)
    e -= 1;
    int64_t w_raw = std::llrint(std::ldexp(w, frac_bits_));
    int64_t one = int64_t{1} << frac_bits_;
    if (w_raw >= 2 * one)
        w_raw = 2 * one - 1;
    int64_t raw = lnMantissaRaw(w_raw) +
                  static_cast<int64_t>(e) * ln2_raw_;
    return std::ldexp(static_cast<double>(raw), -frac_bits_);
}

} // namespace ulpdp
