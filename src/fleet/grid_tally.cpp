#include "fleet/grid_tally.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ulpdp {

GridTally::GridTally(int64_t slot_lo, size_t span, uint32_t trials)
    : slot_lo_(slot_lo), span_(span), delta_(span, 0), slots_(span, 0),
      trial_delta_(trials, 0), trial_sum_(trials, 0)
{}

GridTally::GridTally(agg::CohortSketch sketch, int64_t slot_lo,
                     uint32_t trials)
    : sketch_(std::move(sketch)), slot_lo_(slot_lo),
      span_(sketch_.span()),
      stride_(sketch_.trialRows() > 1 ? sketch_.span() : 0),
      delta_(sketch_.slotCells(), 0), trial_delta_(trials, 0),
      trial_sum_(trials, 0)
{
    ULPDP_ASSERT(sketch_.configured());
}

void
GridTally::beginBlock()
{
    std::fill(delta_.begin(), delta_.end(), uint64_t(0));
    std::fill(trial_delta_.begin(), trial_delta_.end(), int64_t(0));
    block_dropped_ = 0;
}

void
GridTally::endBlock()
{
    if (sketch_.configured()) {
        sketch_.ingestDelta(delta_.data());
    } else {
        for (size_t i = 0; i < slots_.size(); ++i)
            slots_[i] += delta_[i];
    }
    for (size_t t = 0; t < trial_sum_.size(); ++t)
        trial_sum_[t] += trial_delta_[t];
    dropped_ += block_dropped_;
    block_dropped_ = 0;
}

void
GridTally::clear()
{
    if (sketch_.configured())
        sketch_.clear();
    std::fill(slots_.begin(), slots_.end(), uint64_t(0));
    std::fill(trial_sum_.begin(), trial_sum_.end(), int64_t(0));
    dropped_ = 0;
}

void
GridTally::merge(const GridTally &other)
{
    if (span_ != other.span_ || slot_lo_ != other.slot_lo_ ||
        trial_sum_.size() != other.trial_sum_.size())
        fatal("grid tally merge shape mismatch: %zu slots from %lld "
              "vs %zu slots from %lld",
              span_, static_cast<long long>(slot_lo_), other.span_,
              static_cast<long long>(other.slot_lo_));
    if (sketch_.configured())
        sketch_.merge(other.sketch_);
    for (size_t i = 0; i < slots_.size(); ++i)
        slots_[i] += other.slots_[i];
    for (size_t t = 0; t < trial_sum_.size(); ++t)
        trial_sum_[t] += other.trial_sum_[t];
    dropped_ += other.dropped_;
}

std::vector<uint64_t>
GridTally::slotTotals() const
{
    return sketch_.configured() ? sketch_.slotTotals() : slots_;
}

} // namespace ulpdp
