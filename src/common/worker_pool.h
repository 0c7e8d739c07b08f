/**
 * @file
 * The process-wide persistent worker pool and its work-stealing
 * scheduler -- the one place in the library that creates threads.
 *
 * Fleet epochs (FleetRunner) and the certification sweeps (via
 * parallelFor) share it. Helpers are spawned lazily, park on a
 * condition variable between calls and serve every later call of any
 * width, so steady-state dispatch is one mutex round-trip plus a
 * wakeup (DESIGN.md §11).
 *
 * forEach: the caller is worker 0. Each worker owns a contiguous,
 * cache-line-padded queue of item indices and claims about range/8
 * at a time from it; a worker that drains its own queue steals single
 * items until a full sweep finds nothing. Which worker runs an item,
 * and when, is arbitrary: callers key results by item index and use
 * the worker index only to pick scratch space.
 *
 * Calls from different external threads serialize on the pool; a call
 * made from inside a pool job runs inline on that worker.
 */

#ifndef ULPDP_COMMON_WORKER_POOL_H
#define ULPDP_COMMON_WORKER_POOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ulpdp {

/** Number of hardware threads (never less than 1). */
int hardwareJobs();

/** Lazily grown pool of parked helper threads; use instance(). */
class WorkerPool
{
  public:
    /** The pool every parallel caller in the process shares. */
    static WorkerPool &instance();

    /** Wakes and joins every parked helper. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /**
     * Ensure at least @p helpers parked helper threads exist. Timed
     * callers call it *before* starting their timer so first-call
     * spawn cost never lands in the measured region.
     */
    void reserve(unsigned helpers);

    /**
     * Run body(item, worker) exactly once for every item in
     * [0, items) from min(@p workers, @p items) workers, indexed from
     * 0. Runs inline as worker 0 when that count is 1 or the call is
     * nested in a pool job. If a body throws, the first exception is
     * kept, unclaimed items are skipped, and it is rethrown here after
     * every worker has returned. Every worker's writes happen-before
     * the return.
     */
    void forEach(uint64_t items, unsigned workers,
                 const std::function<void(uint64_t, unsigned)> &body);

  private:
    WorkerPool() = default;
    void helperMain(unsigned id);

    /** Serializes forEach calls from different external threads. */
    std::mutex call_mutex_;
    std::mutex mutex_;
    std::condition_variable wake_cv_;
    std::condition_variable done_cv_;
    std::vector<std::thread> helpers_;
    const std::function<void(unsigned)> *job_ = nullptr;
    /** Epoch counter; a helper runs when it observes a new epoch and
     *  its id is below the epoch's active helper count. */
    uint64_t epoch_ = 0;
    unsigned active_helpers_ = 0;
    unsigned outstanding_ = 0;
    bool stop_ = false;
};

} // namespace ulpdp

#endif // ULPDP_COMMON_WORKER_POOL_H
