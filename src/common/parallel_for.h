/**
 * @file
 * Chunked parallel-for over an index range, on the process-wide
 * worker pool (common/worker_pool.h).
 *
 * The range is cut into fixed-size chunks and the chunk indices are
 * scheduled by WorkerPool::forEach, the same work-stealing scheduler
 * the fleet engine uses, so imbalanced chunks self-schedule instead
 * of being assigned up front. This lives in common (not fleet)
 * because the core certification path uses it and core must not
 * depend on fleet.
 *
 * The caller's thread participates as worker 0, so jobs == 1 runs the
 * body inline with no pool traffic (and bitwise-identical behaviour
 * to a plain loop). A call nested in another pool job runs its chunks
 * inline on that worker. Exceptions thrown by the body on any worker
 * are captured and rethrown on the caller.
 */

#ifndef ULPDP_COMMON_PARALLEL_FOR_H
#define ULPDP_COMMON_PARALLEL_FOR_H

#include <cstdint>
#include <functional>

#include "common/worker_pool.h"

namespace ulpdp {

/**
 * Invoke body(begin, end) over disjoint chunks covering
 * [begin, end), from up to `jobs` threads concurrently.
 *
 * @param begin First index.
 * @param end One past the last index.
 * @param jobs Worker count; <= 0 means hardwareJobs(). jobs == 1
 *        executes body(begin, end) inline, chunking skipped.
 * @param chunk Chunk size in indices (must be >= 1).
 * @param body Called as body(chunk_begin, chunk_end) with
 *        begin <= chunk_begin < chunk_end <= end. Must be safe to
 *        call concurrently for disjoint chunks. Results that must be
 *        merged deterministically should be stored per-chunk by the
 *        body (indexable from chunk_begin) and combined by the caller
 *        in index order afterwards.
 */
void parallelFor(int64_t begin, int64_t end, int jobs, int64_t chunk,
                 const std::function<void(int64_t, int64_t)> &body);

} // namespace ulpdp

#endif // ULPDP_COMMON_PARALLEL_FOR_H
