#include "rng/health.h"

#include <bit>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

/** Test-outcome counters, labelled by which 90B test tripped. The
 *  per-word observe() path records nothing -- only the (rare) alarm
 *  transitions touch telemetry, so the monitor stays free on healthy
 *  streams. */
struct HealthMetrics
{
    Counter &repetition = telemetry::registry().counter(
        "ulpdp_rng_health_alarms_total",
        "URNG continuous health test trips by test",
        "alarms", "test=\"repetition\"");
    Counter &proportion = telemetry::registry().counter(
        "ulpdp_rng_health_alarms_total",
        "URNG continuous health test trips by test",
        "alarms", "test=\"proportion\"");
};

HealthMetrics &
healthMetrics()
{
    static HealthMetrics m;
    return m;
}

} // anonymous namespace

RngHealthMonitor::RngHealthMonitor(const RngHealthConfig &config)
    : config_(config),
      planes_(std::bit_width(config.proportion_window))
{
    if (config.repetition_cutoff < 2)
        fatal("RngHealthMonitor: repetition_cutoff must be >= 2, "
              "got %d", config.repetition_cutoff);
    if (config.proportion_window > 0 &&
        config.proportion_tolerance * 2 >= config.proportion_window) {
        fatal("RngHealthMonitor: proportion tolerance %u is vacuous "
              "for window %u", config.proportion_tolerance,
              config.proportion_window);
    }
}

void
RngHealthMonitor::observe(uint32_t word)
{
    ++observed_;

    // Repetition count: a run of C identical words.
    if (observed_ > 1 && word == last_word_) {
        if (++run_length_ >= config_.repetition_cutoff) {
            ++repetition_alarms_;
            if (telemetry::enabled()) {
                healthMetrics().repetition.inc();
                if (!alarmed_)
                    telemetry::event(
                        EventKind::HealthAlarm, observed_,
                        static_cast<double>(repetition_alarms_));
            }
            alarmed_ = true;
            run_length_ = 1; // re-arm so the count stays meaningful
        }
    } else {
        run_length_ = 1;
    }
    last_word_ = word;

    // Adaptive proportion, per bit lane, in bit-sliced vertical
    // counters: plane p holds bit p of all 32 lane counts, so one
    // ripple-carry add across the planes counts the word's ones in
    // every lane at once. W < 2^planes_, so no count can overflow.
    if (config_.proportion_window == 0)
        return;
    uint32_t carry = word;
    for (int p = 0; p < planes_; ++p) {
        uint32_t plane = count_planes_[p];
        count_planes_[p] = plane ^ carry;
        carry &= plane;
    }
    if (++window_fill_ < config_.proportion_window)
        return;

    // Window closed: decode each lane's count from the planes.
    uint32_t half = config_.proportion_window / 2;
    uint32_t tol = config_.proportion_tolerance;
    for (int b = 0; b < 32; ++b) {
        uint32_t ones = 0;
        for (int p = 0; p < planes_; ++p)
            ones |= ((count_planes_[p] >> b) & 1u) << p;
        if (ones + tol < half || ones > half + tol) {
            ++proportion_alarms_;
            if (telemetry::enabled()) {
                healthMetrics().proportion.inc();
                if (!alarmed_)
                    telemetry::event(
                        EventKind::HealthAlarm, observed_,
                        static_cast<double>(proportion_alarms_));
            }
            alarmed_ = true;
        }
    }
    for (int p = 0; p < planes_; ++p)
        count_planes_[p] = 0;
    window_fill_ = 0;
}

void
RngHealthMonitor::reset()
{
    alarmed_ = false;
    observed_ = 0;
    repetition_alarms_ = 0;
    proportion_alarms_ = 0;
    run_length_ = 0;
    last_word_ = 0;
    window_fill_ = 0;
    for (uint32_t &plane : count_planes_)
        plane = 0;
}

} // namespace ulpdp
