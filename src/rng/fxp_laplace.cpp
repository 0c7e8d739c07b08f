#include "rng/fxp_laplace.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "rng/laplace_table.h"

namespace ulpdp {

FxpLaplaceRng::FxpLaplaceRng(const FxpLaplaceConfig &config, uint64_t seed)
    : config_(config),
      quantizer_(config.delta, config.output_bits),
      urng_(seed),
      cordic_(config.cordic_iterations)
{
    if (config.uniform_bits < 1 || config.uniform_bits > 32)
        fatal("FxpLaplaceRng: uniform_bits must be in [1, 32], got %d",
              config.uniform_bits);
    if (!(config.lambda > 0.0))
        fatal("FxpLaplaceRng: lambda must be positive, got %g",
              config.lambda);
}

int64_t
FxpLaplaceRng::pipeline(uint64_t m, int sign) const
{
    ULPDP_ASSERT(m >= 1 &&
                 m <= (uint64_t{1} << config_.uniform_bits));
    ULPDP_ASSERT(sign == 1 || sign == -1);

    double ln_u;
    if (config_.log_mode == FxpLaplaceConfig::LogMode::Cordic) {
        ln_u = cordic_.lnUnitIndex(m, config_.uniform_bits);
    } else {
        double u = std::ldexp(static_cast<double>(m),
                              -config_.uniform_bits);
        ln_u = std::log(u);
    }

    // Inverse-CDF magnitude, Eq. (7): F^-1(u) = -lambda * ln(u) >= 0.
    double magnitude = -config_.lambda * ln_u;
    int64_t k;
    if (config_.rounding == FxpLaplaceConfig::Rounding::Floor) {
        // Truncate to the grid (discrete-Laplace variant): the
        // saturation stage still clamps to the By-bit index range.
        double f = std::floor(magnitude / config_.delta);
        int64_t sat = quantizer_.maxIndex();
        k = f >= static_cast<double>(sat)
                ? sat
                : (f <= 0.0 ? 0 : static_cast<int64_t>(f));
    } else {
        k = quantizer_.quantizeToIndex(magnitude);
    }
    // The magnitude path only uses the non-negative half of the index
    // range; the sign stage produces the negative half.
    return sign > 0 ? k : -k;
}

int64_t
FxpLaplaceRng::sampleIndex()
{
    ++samples_drawn_;
    uint64_t m = urng_.nextUnitIndex(config_.uniform_bits);
    int sign = urng_.nextSign();
    return pipeline(m, sign);
}

double
FxpLaplaceRng::sample()
{
    return quantizer_.value(sampleIndex());
}

bool
FxpLaplaceRng::fastPathEnabled() const
{
    // A quarantined table is never consulted again: the log datapath
    // computes the same pipeline without the suspect memory.
    if (integrity_fault_)
        return false;
    switch (config_.sample_path) {
      case FxpLaplaceConfig::SamplePath::Naive:
        return false;
      case FxpLaplaceConfig::SamplePath::Table:
        return true;
      case FxpLaplaceConfig::SamplePath::Auto:
        return LaplaceSampleTable::supports(config_.uniform_bits,
                                            quantizer_.maxIndex());
    }
    panic("FxpLaplaceRng: invalid sample_path");
}

const LaplaceSampleTable &
FxpLaplaceRng::table()
{
    if (!table_)
        table_ = std::make_shared<LaplaceSampleTable>(*this);
    return *table_;
}

std::shared_ptr<const LaplaceSampleTable>
FxpLaplaceRng::sharedTable()
{
    if (ensureTable() == nullptr)
        return nullptr;
    return table_;
}

LaplaceSampleTable *
FxpLaplaceRng::mutableTable()
{
    if (integrity_fault_)
        return table_.get();
    if (ensureTable() == nullptr)
        return nullptr;
    return table_.get();
}

void
FxpLaplaceRng::noteIntegrityFault(const char *what)
{
    integrity_fault_ = true;
    ++integrity_detections_;
    warn("FxpLaplaceRng: sampler-table integrity fault (%s); table "
         "quarantined, serving draws from the log datapath", what);
}

bool
FxpLaplaceRng::verifyTableIntegrity()
{
    if (integrity_fault_)
        return false;
    if (!table_)
        return true; // nothing enumerated yet, nothing to corrupt
    if (table_->verify())
        return true;
    noteIntegrityFault("CRC scrub mismatch");
    return false;
}

const LaplaceSampleTable *
FxpLaplaceRng::ensureTable()
{
    if (!fastPathEnabled())
        return nullptr;
    return &table();
}

int64_t
FxpLaplaceRng::sampleIndexFast()
{
    const LaplaceSampleTable *t = ensureTable();
    if (t == nullptr)
        return sampleIndex();
    ++samples_drawn_;
    uint64_t m = urng_.nextUnitIndex(config_.uniform_bits);
    int sign = urng_.nextSign();
    int64_t k = t->lookup(m);
    if (config_.integrity_checks && k > quantizer_.maxIndex()) {
        // The comparator caught a corrupted entry: quarantine the
        // table and recompute this draw through the log datapath
        // (same m and sign, so the sample itself stays sound).
        noteIntegrityFault("direct entry out of range");
        return pipeline(m, sign);
    }
    return sign > 0 ? k : -k;
}

void
FxpLaplaceRng::sampleBatch(int64_t *out, size_t n)
{
    const LaplaceSampleTable *t = ensureTable();
    if (t == nullptr) {
        for (size_t i = 0; i < n; ++i)
            out[i] = sampleIndex();
        return;
    }
    int64_t sat = quantizer_.maxIndex();

    for (size_t i = 0; i < n; ++i) {
        if (integrity_fault_) {
            // Table quarantined mid-batch: finish on the log path.
            out[i] = sampleIndex();
            continue;
        }
        ++samples_drawn_;
        uint64_t m = urng_.nextUnitIndex(config_.uniform_bits);
        int sign = urng_.nextSign();
        int64_t k = t->lookup(m);
        if (config_.integrity_checks && k > sat) {
            noteIntegrityFault("direct entry out of range");
            out[i] = pipeline(m, sign);
            continue;
        }
        out[i] = sign > 0 ? k : -k;
    }
}

bool
FxpLaplaceRng::sampleIndexTruncated(int64_t lo, int64_t hi,
                                    int64_t &out)
{
    ULPDP_ASSERT(lo <= 0 && hi >= 0);
    ULPDP_ASSERT(fastPathEnabled());
    const LaplaceSampleTable &t = table();

    // Accepted URNG states: sign +1 needs magnitude <= hi, sign -1
    // needs magnitude <= -lo (magnitude 0 is accepted on both signs,
    // exactly as accept-reject accepts both sign draws of 0).
    uint64_t plus = t.cumulativeCount(hi);
    uint64_t minus = t.cumulativeCount(-lo);
    if (plus > t.states() || minus > t.states()) {
        // An intact table can never count more accepted states than
        // states exist; this is SRAM corruption in the cumulative
        // array.
        if (config_.integrity_checks) {
            noteIntegrityFault("cumulative count exceeds state count");
            return false;
        }
        // Unhardened silicon: the rank address simply truncates.
        plus = std::min(plus, t.states());
        minus = std::min(minus, t.states());
    }
    uint64_t total = plus + minus;
    if (total == 0)
        return false;

    // One unbiased uniform rank over the accepted states: draw the
    // smallest covering power of two and reject overshoot (< 2
    // expected draws; total <= 2^(Bu+1) so the width fits 32 bits).
    int width = 1;
    while ((uint64_t{1} << width) < total)
        ++width;
    uint64_t r;
    do {
        r = urng_.nextBits(width);
    } while (r >= total);

    ++samples_drawn_;
    if (r < plus)
        out = t.lookupByRank(r);
    else
        out = -t.lookupByRank(r - plus);
    if (config_.integrity_checks && (out < lo || out > hi)) {
        // The rank table promised this state lands inside the window;
        // an entry outside it means the rank array was corrupted.
        noteIntegrityFault("rank entry escapes the truncation window");
        return false;
    }
    return true;
}

double
FxpLaplaceRng::maxMagnitude() const
{
    return config_.lambda * static_cast<double>(config_.uniform_bits) *
           std::log(2.0);
}

} // namespace ulpdp
