/**
 * @file
 * Exact integer tally of one cohort's released reports: the
 * accumulator the fleet hot loop feeds instead of floating-point
 * moments.
 *
 * Every report a grid mechanism releases is y * Delta for an output
 * index y, so the released histogram, moments and per-trial means all
 * follow from two integer structures: a uint64 count per output slot
 * and an int64 index sum per trial. Integer addition is associative,
 * so tallies merge in any order and the folded result is independent
 * of how nodes were split across workers (DESIGN.md §8, §14).
 *
 * Block protocol: the hot loop adds reports to *block deltas*, which
 * reach the totals only at endBlock(). beginBlock() zeroes the deltas,
 * so calling it again mid-block discards everything added since --
 * the fleet's batch bail-and-redo relies on that to never count a
 * redone block twice.
 *
 * With streaming aggregation on, the slot delta is the agg sketch's
 * own delta (same window, trial-major rows when per-trial capture is
 * on) and the sketch holds the slot totals: one bump per report feeds
 * both.
 */

#ifndef ULPDP_FLEET_GRID_TALLY_H
#define ULPDP_FLEET_GRID_TALLY_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "agg/stream.h"

namespace ulpdp {

/**
 * Allocator handing out whole 64-byte-aligned cache lines. The block
 * deltas are bumped on every report; a small buffer (R per-trial
 * sums) from plain malloc can share a line with another worker's,
 * and every bump would then ping-pong it between cores.
 */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &) {}

    T *allocate(size_t n)
    {
        size_t bytes = (n * sizeof(T) + 63) & ~size_t{63};
        return static_cast<T *>(
            ::operator new(bytes, std::align_val_t{64}));
    }
    void deallocate(T *p, size_t)
    {
        ::operator delete(p, std::align_val_t{64});
    }
    bool operator==(const CacheLineAllocator &) const { return true; }
};

/** One worker's exact tally of one cohort's reports (see the file
 *  comment for the block protocol). */
class GridTally
{
  public:
    GridTally() = default;

    /**
     * Tally with its own slot totals.
     *
     * @param slot_lo Output index of slot 0.
     * @param span Slots in the window.
     * @param trials Reports per node (one index sum per trial).
     */
    GridTally(int64_t slot_lo, size_t span, uint32_t trials);

    /**
     * Tally whose slot counts feed (and live in) @p sketch, which
     * must be configured; slot 0 is output index @p slot_lo.
     */
    GridTally(agg::CohortSketch sketch, int64_t slot_lo,
              uint32_t trials);

    /** Start a block, or restart it: zero the block deltas, which
     *  discards everything added since the last beginBlock(). */
    void beginBlock();

    /** Count report @p y of trial @p t into the block in flight. */
    void add(uint32_t t, int64_t y)
    {
        size_t s = static_cast<size_t>(y - slot_lo_);
        if (s < span_) [[likely]]
            ++delta_[static_cast<size_t>(t) * stride_ + s];
        else
            ++block_dropped_;
        trial_delta_[t] += y;
    }

    /** Fold the block in flight into the totals. */
    void endBlock();

    /** Zero the totals, keeping the shape (epoch reuse). */
    void clear();

    /** Add another tally's totals (same shape; any order). */
    void merge(const GridTally &other);

    /** Exact count per slot, summed over trial rows. */
    std::vector<uint64_t> slotTotals() const;

    /** Sum of the output indices of each trial's reports. */
    const std::vector<int64_t> &trialSums() const { return trial_sum_; }

    /** Reports whose output index missed the window. */
    uint64_t dropped() const { return dropped_; }

    /** The agg shard (unconfigured unless built from a sketch). */
    const agg::CohortSketch &sketch() const { return sketch_; }

    /** Output index of slot 0. */
    int64_t slotLo() const { return slot_lo_; }

  private:
    agg::CohortSketch sketch_;
    int64_t slot_lo_ = 0;
    size_t span_ = 0;
    /** Delta row stride: span_ for trial-major rows, else 0. */
    size_t stride_ = 0;
    std::vector<uint64_t, CacheLineAllocator<uint64_t>> delta_;
    /** Slot totals of completed blocks (no sketch). */
    std::vector<uint64_t> slots_;
    std::vector<int64_t, CacheLineAllocator<int64_t>> trial_delta_;
    std::vector<int64_t> trial_sum_;
    uint64_t block_dropped_ = 0;
    uint64_t dropped_ = 0;
};

} // namespace ulpdp

#endif // ULPDP_FLEET_GRID_TALLY_H
