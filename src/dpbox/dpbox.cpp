#include "dpbox/dpbox.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/budget_ledger.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

/** Device-model surface, shared by every DpBox in the process (a
 *  deployment aggregates over its install base the same way). */
struct DpBoxMetrics
{
    Counter &requests = telemetry::registry().counter(
        "ulpdp_dpbox_noising_requests_total",
        "StartNoising commands accepted by the device",
        "requests");
    Counter &resamples = telemetry::registry().counter(
        "ulpdp_dpbox_resamples_total",
        "Extra noising cycles spent redrawing out-of-window samples",
        "cycles");
    Counter &replays = telemetry::registry().counter(
        "ulpdp_dpbox_cache_replays_total",
        "Outputs served from the cache register",
        "reports");
    Counter &exhausted = telemetry::registry().counter(
        "ulpdp_dpbox_budget_exhausted_total",
        "Noising requests the budget logic halted",
        "requests");
    Counter &glitches = telemetry::registry().counter(
        "ulpdp_dpbox_timer_glitches_rejected_total",
        "Replenishment-timer misfires the shadow counter rejected",
        "events");
    Sum &spend = telemetry::registry().sum(
        "ulpdp_dpbox_budget_spend_nats_total",
        "Privacy loss charged by the embedded budget logic",
        "nats");
};

DpBoxMetrics &
dpboxMetrics()
{
    static DpBoxMetrics m;
    return m;
}

} // anonymous namespace

DpBox::DpBox(const DpBoxConfig &config)
    : config_(config), urng_(config.seed),
      cordic_(config.cordic_iterations),
      thresholding_(config.thresholding), health_(config.health)
{
    if (config.harden_faults) {
        // The monitor observes the URNG *after* any fault hook, i.e.
        // exactly the words the noising datapath consumes.
        urng_.attachHealthMonitor(&health_);
    }
    if (config.word_bits < 8 || config.word_bits > 62)
        fatal("DpBox: word_bits must be in [8, 62], got %d",
              config.word_bits);
    if (config.frac_bits < 0 || config.frac_bits >= config.word_bits)
        fatal("DpBox: frac_bits must be in [0, word_bits), got %d",
              config.frac_bits);
    if (config.uniform_bits < 4 || config.uniform_bits > 32)
        fatal("DpBox: uniform_bits must be in [4, 32], got %d",
              config.uniform_bits);
    if (config.threshold_index < 0)
        fatal("DpBox: threshold_index must be non-negative");
    if (config.budget_enabled) {
        if (config.segments.empty())
            fatal("DpBox: budget enabled but no loss segments given");
        if (config.segments.back().threshold_index !=
                config.threshold_index)
            fatal("DpBox: outermost segment threshold (%lld) must "
                  "equal threshold_index (%lld)",
                  static_cast<long long>(
                      config.segments.back().threshold_index),
                  static_cast<long long>(config.threshold_index));
    }

    raw_max_ = (int64_t{1} << (config.word_bits - 1)) - 1;
    raw_min_ = -(int64_t{1} << (config.word_bits - 1));

    if (config.hardened) {
        // Section IV, no-software-trusted deployment: privacy
        // parameters come fused from manufacture and the port
        // commands that would change them are dead (applyCommand
        // ignores them outside initialization).
        if (config.fused_range_hi <= config.fused_range_lo)
            fatal("DpBox: hardened mode requires a valid fused "
                  "sensor range");
        if (config.fused_n_m < 0 || config.fused_n_m > 16)
            fatal("DpBox: fused n_m must be in [0, 16], got %d",
                  config.fused_n_m);
        n_m_ = config.fused_n_m;
        r_l_ = std::clamp(config.fused_range_lo, raw_min_, raw_max_);
        r_u_ = std::clamp(config.fused_range_hi, raw_min_, raw_max_);
    }
}

void
DpBox::attachFaultHook(FaultHook *hook)
{
    fault_hook_ = hook;
    urng_.setFaultHook(hook);
}

double
DpBox::lsb() const
{
    return std::ldexp(1.0, -config_.frac_bits);
}

int64_t
DpBox::toRaw(double v) const
{
    double scaled = std::ldexp(v, config_.frac_bits);
    if (scaled >= static_cast<double>(raw_max_))
        return raw_max_;
    if (scaled <= static_cast<double>(raw_min_))
        return raw_min_;
    return std::llrint(scaled);
}

double
DpBox::fromRaw(int64_t raw) const
{
    return std::ldexp(static_cast<double>(raw), -config_.frac_bits);
}

void
DpBox::precomputeSample()
{
    // Eq. (17) realised as a sign bit plus a Bu-bit magnitude index:
    // the MSB of the uniform word selects the branch, the rest feeds
    // the CORDIC logarithm. The raw CORDIC output stays un-scaled
    // here; the noising cycle applies s_f (Eq. 18).
    uint64_t m = urng_.nextUnitIndex(config_.uniform_bits);
    sample_sign_ = urng_.nextSign();
    sample_mag_raw_ = -cordic_.lnUnitIndexRaw(m, config_.uniform_bits);
    ULPDP_ASSERT(sample_mag_raw_ >= 0);
    sample_valid_ = true;
}

std::optional<double>
DpBox::chargeBudget(int64_t out)
{
    int64_t ext = 0;
    if (out < r_l_)
        ext = r_l_ - out;
    else if (out > r_u_)
        ext = out - r_u_;

    double loss = config_.segments.back().loss;
    for (const auto &seg : config_.segments) {
        if (ext <= seg.threshold_index) {
            loss = seg.loss;
            break;
        }
    }
    if (budget_ + 1e-12 < loss)
        return std::nullopt;

    // Durability gate: the spend hits flash before the noised word
    // hits the output port. A cut append means the power is dying --
    // withhold the transaction (the caller replays the cache) and,
    // on hardened silicon, latch fail-secure.
    if (ledger_ != nullptr && !ledger_->journalSpend(loss)) {
        ++fault_stats_.ledger_append_failures;
        if (config_.harden_faults && !fault_latched_) {
            fault_latched_ = true;
            warn("DpBox: ledger append failed before output release; "
                 "latching cache-only service");
            telemetry::event(
                EventKind::FaultLatch, stats_.cycles,
                static_cast<double>(fault_stats_.detections()));
        }
        return std::nullopt;
    }

    budget_ -= loss;
    return loss;
}

bool
DpBox::noisingCycle()
{
    // Fail-secure gate: a tripped URNG health test means the
    // precomputed sample (and every future draw) comes from suspect
    // state. Latch cache-only service -- replaying already-released
    // data costs zero additional privacy no matter how broken the
    // noise source is.
    if (config_.harden_faults && !fault_latched_ && health_.alarmed()) {
        ++fault_stats_.urng_health_alarms;
        fault_latched_ = true;
        warn("DpBox: URNG continuous health test tripped; latching "
             "cache-only service");
        telemetry::event(
            EventKind::FaultLatch, stats_.cycles,
            static_cast<double>(fault_stats_.detections()));
    }
    if (fault_latched_) {
        ++fault_stats_.fail_secure_reports;
        ++stats_.cache_hits;
        if (telemetry::enabled())
            dpboxMetrics().replays.inc();
        output_ = cache_.value_or((r_l_ + r_u_) / 2);
        ready_ = true;
        sample_valid_ = false;
        return true;
    }

    ULPDP_ASSERT(sample_valid_);

    // Scale factor s_f = (r_u - r_l) * 2^{n_m} (Eqs. 16, 19): the
    // epsilon part is a left shift; the range part is one multiply.
    // The product is rounded into the output word -- the quantization
    // point of the whole datapath (step Delta = one output LSB).
    int64_t d_raw = r_u_ - r_l_;
    ULPDP_ASSERT(d_raw > 0);
    __int128 prod = static_cast<__int128>(sample_mag_raw_) * d_raw;
    prod <<= n_m_;
    int f = cordic_.fracBits();
    __int128 half = __int128{1} << (f - 1);
    int64_t mag_lsbs = static_cast<int64_t>((prod + half) >> f);

    int64_t tmp = sensor_ + sample_sign_ * mag_lsbs;
    tmp = std::clamp(tmp, raw_min_, raw_max_);

    int64_t win_lo = r_l_ - config_.threshold_index;
    int64_t win_hi = r_u_ + config_.threshold_index;

    if (tmp < win_lo || tmp > win_hi) {
        if (!thresholding_) {
            // Resampling: draw a fresh sample; this cycle is spent.
            ++stats_.resamples;
            if (telemetry::enabled())
                dpboxMetrics().resamples.inc();
            precomputeSample();
            return false;
        }
        tmp = std::clamp(tmp, win_lo, win_hi);
    }

    if (config_.budget_enabled) {
        auto charged = chargeBudget(tmp);
        if (!charged.has_value()) {
            // Budget exhausted: replay the cache (midpoint before any
            // fresh output exists -- a constant, zero leakage).
            ++stats_.budget_exhausted_events;
            ++stats_.cache_hits;
            if (telemetry::enabled()) {
                dpboxMetrics().exhausted.inc();
                dpboxMetrics().replays.inc();
                telemetry::event(EventKind::HaltReplay,
                                 stats_.cycles, 0.0);
            }
            output_ = cache_.value_or((r_l_ + r_u_) / 2);
            ready_ = true;
            sample_valid_ = false;
            return true;
        }
        if (telemetry::enabled()) {
            dpboxMetrics().spend.add(*charged);
            telemetry::event(EventKind::BudgetSpend, stats_.cycles,
                             *charged);
        }
    }

    output_ = tmp;
    cache_ = tmp;
    ready_ = true;
    sample_valid_ = false;
    return true;
}

void
DpBox::applyCommand(DpBoxCommand cmd, int64_t input)
{
    bool init = phase_ == DpBoxPhase::Initialization;
    switch (cmd) {
      case DpBoxCommand::DoNothing:
        break;
      case DpBoxCommand::SetEpsilon:
        if (init) {
            // During initialization this command configures the
            // budget (Section IV-A); losses are raw nats.
            initial_budget_ = static_cast<double>(input) *
                              std::ldexp(1.0, -8);
            budget_ = initial_budget_;
        } else if (!config_.hardened) {
            if (input < 0 || input > 16)
                fatal("DpBox: n_m must be in [0, 16], got %lld",
                      static_cast<long long>(input));
            n_m_ = static_cast<int>(input);
        }
        break;
      case DpBoxCommand::SetSensorValue:
        if (!init)
            sensor_ = std::clamp(input, raw_min_, raw_max_);
        break;
      case DpBoxCommand::SetRangeUpper:
        if (init) {
            replenish_period_ =
                input > 0 ? static_cast<uint64_t>(input) : 0;
        } else if (!config_.hardened) {
            r_u_ = std::clamp(input, raw_min_, raw_max_);
        }
        break;
      case DpBoxCommand::SetRangeLower:
        if (!init && !config_.hardened)
            r_l_ = std::clamp(input, raw_min_, raw_max_);
        break;
      case DpBoxCommand::SetThreshold:
        if (!init && !config_.hardened)
            thresholding_ = !thresholding_;
        break;
      case DpBoxCommand::StartNoising:
        if (init) {
            // Seal the budget configuration; it cannot change until
            // power cycle (the phase never returns to init).
            phase_ = DpBoxPhase::Waiting;
            last_replenish_cycle_ = stats_.cycles;
            precomputeSample();
        } else {
            if (r_u_ <= r_l_)
                fatal("DpBox: sensor range not configured "
                      "(r_u <= r_l)");
            ready_ = false;
            ++stats_.noising_requests;
            if (telemetry::enabled())
                dpboxMetrics().requests.inc();
            phase_ = DpBoxPhase::Noising;
        }
        break;
    }
}

void
DpBox::step(DpBoxCommand cmd, int64_t input)
{
    ++stats_.cycles;

    // Replenishment timer runs every cycle regardless of phase
    // (after initialization has sealed the configuration). The timer
    // comparator is a fault site: a glitch makes it claim the period
    // elapsed early, which would refill spent budget ahead of
    // schedule -- a direct privacy violation. The hardened device
    // cross-checks against a redundant shadow counter (modelled by
    // the elapsed-cycles arithmetic below) and refuses a refill the
    // shadow does not confirm.
    if (phase_ != DpBoxPhase::Initialization && replenish_period_ > 0) {
        bool elapsed =
            stats_.cycles - last_replenish_cycle_ >= replenish_period_;
        bool timer_fired = elapsed ||
            (fault_hook_ != nullptr && fault_hook_->replenishGlitch());
        if (timer_fired) {
            if (!elapsed && config_.harden_faults) {
                ++fault_stats_.timer_glitches_rejected;
                if (telemetry::enabled())
                    dpboxMetrics().glitches.inc();
            } else {
                budget_ = initial_budget_;
                last_replenish_cycle_ = stats_.cycles;
                if (config_.budget_enabled)
                    telemetry::event(EventKind::Replenish,
                                     stats_.cycles, budget_);
            }
        }
    }

    if (phase_ == DpBoxPhase::Noising) {
        // Device is busy; port commands are ignored this cycle.
        if (noisingCycle())
            phase_ = DpBoxPhase::Waiting;
        // Once latched, the URNG is never advanced again: no fresh
        // randomness may be drawn from suspect state.
        if (!sample_valid_ && !fault_latched_)
            precomputeSample();
        return;
    }

    applyCommand(cmd, input);
}

} // namespace ulpdp
