/**
 * @file
 * DP-Box: cycle-level model of the paper's hardware module for local
 * differential privacy (Section IV).
 *
 * The DP-Box sits between a sensor and untrusted software. It exposes
 * a 3-bit command port, a signed fixed-point input port, a signed
 * output port and a ready bit. Operation has three phases:
 *
 *  1. Initialization (after reset, during secure boot): the privacy
 *     budget and replenishment period are configured; they can never
 *     be changed again until power cycle.
 *  2. Waiting: the device looks idle but internally tracks the
 *     replenishment timer and pre-computes the next Laplace sample
 *     I_u (Eq. 17) so that noising can complete in a single cycle.
 *  3. Noising: computes n = s_f * I_u (Eq. 18) with the scale factor
 *     s_f = (r_u - r_l) * 2^{n_m} (Eqs. 16/19 -- epsilon is a power
 *     of two so the epsilon part of the scaling is a bit shift),
 *     adds it to the sensor value and applies the configured range
 *     control (clamp, or resample one extra cycle per redraw).
 *
 * Latency model per Section V: a noised output is produced in 2
 * cycles (one register-load cycle + one noising cycle); thresholding
 * adds nothing; every resample adds one cycle. The uniform source is
 * the Tausworthe generator and the logarithm is the single-cycle
 * CORDIC unit.
 *
 * Values cross the ports as raw fixed-point words of a configurable
 * Q format (default Q14.6 in a 20-bit word: 13-bit sensors plus sign
 * and clamp headroom, 6 fraction bits -- "we needed to use 20-bit
 * fixed-point values" for 13-bit sensors, Section III-D).
 */

#ifndef ULPDP_DPBOX_DPBOX_H
#define ULPDP_DPBOX_DPBOX_H

#include <cstdint>
#include <optional>
#include <vector>

#include "common/fault.h"
#include "core/budget.h"
#include "rng/cordic.h"
#include "rng/health.h"
#include "rng/tausworthe.h"

namespace ulpdp {

/** The 3-bit command encoding of the DP-Box command port. */
enum class DpBoxCommand : uint8_t
{
    /** Hold the device idle (it would otherwise re-noise). */
    DoNothing = 0,

    /** Begin noising; in the initialization phase, seal the budget
     *  configuration and transition to waiting. */
    StartNoising = 1,

    /** Set n_m (epsilon = 2^-n_m); in initialization, set budget. */
    SetEpsilon = 2,

    /** Load the sensor value to be noised. */
    SetSensorValue = 3,

    /** Set the sensor range upper limit r_u; in initialization, set
     *  the replenishment period. */
    SetRangeUpper = 4,

    /** Set the sensor range lower limit r_l. */
    SetRangeLower = 5,

    /** Toggle between resampling and thresholding range control. */
    SetThreshold = 6,
};

/** Operating phase of the device FSM. */
enum class DpBoxPhase : uint8_t
{
    Initialization,
    Waiting,
    Noising,
};

/** Synthesis-time configuration of a DP-Box instance. */
struct DpBoxConfig
{
    /** Fraction bits of the port fixed-point format. */
    int frac_bits = 6;

    /** Total port word length in bits (paper: 20). */
    int word_bits = 20;

    /** Magnitude bits drawn from the URNG per sample (Bu). */
    int uniform_bits = 17;

    /** Window extension (in output LSBs) applied by the range
     *  control, i.e. the threshold n_th in Delta units. */
    int64_t threshold_index = 0;

    /** Start in thresholding (true) or resampling (false) mode. */
    bool thresholding = true;

    /** Enable the embedded budget-control logic (11% area cost). */
    bool budget_enabled = false;

    /**
     * Output-adaptive loss segments for the budget logic, innermost
     * first, thresholds in output LSB units. In real silicon this
     * table is computed from the analysis of Section III-C and fused
     * or configured at secure boot. The outermost threshold must
     * equal threshold_index.
     */
    std::vector<BudgetSegment> segments;

    /** CORDIC micro-rotations of the log unit. */
    int cordic_iterations = 32;

    /** Tausworthe seed (silicon would use a TRNG-seeded state). */
    uint64_t seed = 1;

    /**
     * Hardened ("no software trusted") mode, Section IV: on
     * microcontrollers without process isolation no software may be
     * allowed to set privacy parameters, so epsilon, the sensor
     * range and the control mode are fused at manufacture and the
     * corresponding port commands are ignored after initialization.
     */
    bool hardened = false;

    /** Fused n_m (epsilon = 2^-n_m); hardened mode only. */
    int fused_n_m = 1;

    /** Fused sensor range lower limit (raw word). */
    int64_t fused_range_lo = 0;

    /** Fused sensor range upper limit (raw word). */
    int64_t fused_range_hi = 0;

    /**
     * Fault-hardening logic (Section IV hardening extension): run
     * the SP 800-90B-style continuous health tests on the URNG,
     * cross-check the replenishment timer against a redundant shadow
     * counter, and latch fail-secure (cache-only) service on any
     * detection. Off models unhardened silicon for fault-injection
     * experiments.
     */
    bool harden_faults = true;

    /** Tuning of the URNG continuous health tests. */
    RngHealthConfig health;
};

/** Aggregate statistics the model keeps for evaluation. */
struct DpBoxStats
{
    uint64_t cycles = 0;
    uint64_t noising_requests = 0;
    uint64_t resamples = 0;
    uint64_t cache_hits = 0;
    uint64_t budget_exhausted_events = 0;

    /** Accumulate another device's counters (fleet aggregation). */
    DpBoxStats &
    operator+=(const DpBoxStats &o)
    {
        cycles += o.cycles;
        noising_requests += o.noising_requests;
        resamples += o.resamples;
        cache_hits += o.cache_hits;
        budget_exhausted_events += o.budget_exhausted_events;
        return *this;
    }
};

/**
 * Cycle-level DP-Box device model. Drive it one clock at a time with
 * step(); each call is one rising edge with the given command and
 * input word applied.
 */
class DpBox
{
  public:
    explicit DpBox(const DpBoxConfig &config);

    /** Apply one clock cycle with @p cmd and @p input on the ports. */
    void step(DpBoxCommand cmd, int64_t input = 0);

    /** Ready bit: a noised output is available on the output port. */
    bool ready() const { return ready_; }

    /** Output port (raw fixed-point word); valid while ready(). */
    int64_t output() const { return output_; }

    /** Current FSM phase. */
    DpBoxPhase phase() const { return phase_; }

    /** Total cycles elapsed since reset. */
    uint64_t cycles() const { return stats_.cycles; }

    /** Statistics counters. */
    const DpBoxStats &stats() const { return stats_; }

    /** Remaining privacy budget (raw loss units). */
    double remainingBudget() const { return budget_; }

    /** Whether the device is currently in thresholding mode. */
    bool thresholdingMode() const { return thresholding_; }

    /** Current n_m register value (epsilon = 2^-n_m). */
    int nm() const { return n_m_; }

    /** Current sensor-range register values (raw words). */
    int64_t rangeLoRaw() const { return r_l_; }
    int64_t rangeHiRaw() const { return r_u_; }

    /** Replenishment period configured at initialization. */
    uint64_t replenishPeriod() const { return replenish_period_; }

    /**
     * Attach a fault injector to the device's fault sites (URNG
     * output register, replenishment-timer comparator). Borrowed
     * pointer; nullptr detaches. Production devices leave this unset.
     */
    void attachFaultHook(FaultHook *hook);

    /**
     * Attach the durable budget ledger (borrowed; must outlive the
     * device and be mounted). Each spend is journaled before the
     * noised word reaches the output port; a failed append withholds
     * the transaction and (when harden_faults) latches cache-only
     * service. nullptr detaches.
     */
    void attachLedger(BudgetLedger *ledger) { ledger_ = ledger; }

    /** True once a detected fault latched cache-only service. */
    bool faultLatched() const { return fault_latched_; }

    /** Detection/degradation counters of the hardening logic. */
    const FaultStats &faultStats() const { return fault_stats_; }

    /** The URNG health monitor (active when harden_faults). */
    const RngHealthMonitor &healthMonitor() const { return health_; }

    /** Configuration (immutable after construction). */
    const DpBoxConfig &config() const { return config_; }

    /** Value of one output LSB. */
    double lsb() const;

    /** Convert a double to a port word (round, saturate). */
    int64_t toRaw(double v) const;

    /** Convert a port word to a double. */
    double fromRaw(int64_t raw) const;

  private:
    /** Execute a command received while in a configurable phase. */
    void applyCommand(DpBoxCommand cmd, int64_t input);

    /** Draw the next Laplace unit sample I_u (Eq. 17). */
    void precomputeSample();

    /** One noising-phase cycle; returns true when output is ready. */
    bool noisingCycle();

    /** Classify output extension and charge the budget; returns the
     *  charged loss or nullopt when the budget cannot cover it. */
    std::optional<double> chargeBudget(int64_t out);

    DpBoxConfig config_;
    Tausworthe urng_;
    CordicLog cordic_;

    DpBoxPhase phase_ = DpBoxPhase::Initialization;
    bool ready_ = false;
    int64_t output_ = 0;

    // Configuration registers.
    int n_m_ = 1;           // epsilon = 2^-n_m
    int64_t sensor_ = 0;    // sensor value register (raw)
    int64_t r_u_ = 0;       // range upper (raw)
    int64_t r_l_ = 0;       // range lower (raw)
    bool thresholding_;
    double budget_ = 0.0;
    double initial_budget_ = 0.0;
    uint64_t replenish_period_ = 0;
    uint64_t last_replenish_cycle_ = 0;

    // Waiting-phase precomputed Laplace unit sample (Eq. 17): sign
    // bit plus un-scaled CORDIC magnitude in the CORDIC's internal Q
    // format. Scaling by s_f happens in the noising cycle (Eq. 18).
    int sample_sign_ = 1;
    int64_t sample_mag_raw_ = 0;
    bool sample_valid_ = false;

    // Cache register for budget-exhausted replay.
    std::optional<int64_t> cache_;

    // Fault hardening: continuous health tests on the URNG, the
    // injector hook, and the fail-secure latch.
    RngHealthMonitor health_;
    FaultHook *fault_hook_ = nullptr;
    BudgetLedger *ledger_ = nullptr;
    bool fault_latched_ = false;
    FaultStats fault_stats_;

    int64_t raw_min_;
    int64_t raw_max_;
    DpBoxStats stats_;
};

} // namespace ulpdp

#endif // ULPDP_DPBOX_DPBOX_H
