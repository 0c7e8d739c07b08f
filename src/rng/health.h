/**
 * @file
 * Continuous health tests on the Tausworthe output stream, in the
 * style of NIST SP 800-90B section 4.4.
 *
 * The DP-Box's privacy proof assumes the uniform source is, in fact,
 * uniform. A URNG whose output register sticks (SEU latching a flop,
 * a dead clock branch) silently turns Laplace noise into a constant,
 * at which point every released report is the true reading plus a
 * known offset -- unbounded privacy loss with no functional symptom.
 * Real entropy sources therefore run continuous health tests; we run
 * the two 90B prescribes, adapted to 32-bit generator words:
 *
 *  - Repetition count test: C consecutive identical output words trip
 *    the alarm. For an ideal 32-bit source the probability of even
 *    one repeat is 2^-32 per word, so the default cutoff of 3 has a
 *    false-alarm rate around 2^-64 per word while catching a stuck
 *    output register within 3 draws.
 *
 *  - Adaptive proportion test, per bit lane: over a window of W
 *    words, each of the 32 bit positions must stay within
 *    [W/2 - tol, W/2 + tol] ones. A single stuck or flipped *bit*
 *    (which the word-level repetition test cannot see, since the
 *    words still all differ) drives its lane to 0 or W and trips
 *    within one window. The default tolerance of 6 sigma keeps the
 *    false-alarm rate per lane per window below 1e-8.
 *
 * The monitor is passive: attach it to a Tausworthe and it observes
 * every output word (after any fault hook, i.e. it sees what the
 * datapath sees). Alarms latch; the consuming component decides the
 * fail-secure response.
 */

#ifndef ULPDP_RNG_HEALTH_H
#define ULPDP_RNG_HEALTH_H

#include <cstdint>

namespace ulpdp {

/** Tuning of the continuous health tests. */
struct RngHealthConfig
{
    /** Repetition-count cutoff C: alarm at C identical words in a
     *  row. Must be >= 2. */
    int repetition_cutoff = 3;

    /** Adaptive-proportion window W in words; 0 disables the test. */
    uint32_t proportion_window = 512;

    /**
     * Allowed deviation of each bit lane's ones-count from W/2, in
     * counts. The default is ~6 standard deviations of Bin(W, 1/2)
     * at W = 512 (sigma ~= 11.3).
     */
    uint32_t proportion_tolerance = 68;
};

/** Latching continuous health monitor for a 32-bit URNG stream. */
class RngHealthMonitor
{
  public:
    explicit RngHealthMonitor(const RngHealthConfig &config = {});

    /** Feed one output word (called by the attached generator). */
    void observe(uint32_t word);

    /** True once any test has tripped (latching). */
    bool alarmed() const { return alarmed_; }

    /** Repetition-count trips so far. */
    uint64_t repetitionAlarms() const { return repetition_alarms_; }

    /** Adaptive-proportion trips so far (lanes out of tolerance). */
    uint64_t proportionAlarms() const { return proportion_alarms_; }

    /** Words observed so far. */
    uint64_t observed() const { return observed_; }

    /** Clear the alarm latch and all windows (after remediation --
     *  e.g. a reseed from a trusted source -- or between tests). */
    void reset();

    /** Configuration in effect. */
    const RngHealthConfig &config() const { return config_; }

  private:
    RngHealthConfig config_;
    bool alarmed_ = false;
    uint64_t observed_ = 0;
    uint64_t repetition_alarms_ = 0;
    uint64_t proportion_alarms_ = 0;

    // Repetition-count state.
    uint32_t last_word_ = 0;
    int run_length_ = 0;

    // Adaptive-proportion state: the ones-count of each bit lane over
    // the current window, bit-sliced -- bit b of count_planes_[p] is
    // bit p of lane b's count. Only the low planes_ =
    // bit_width(proportion_window) planes are used.
    uint32_t count_planes_[32] = {};
    int planes_ = 0;
    uint32_t window_fill_ = 0;
};

} // namespace ulpdp

#endif // ULPDP_RNG_HEALTH_H
