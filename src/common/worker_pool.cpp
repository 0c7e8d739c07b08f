#include "common/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace ulpdp {

namespace {

/** True while this thread runs a pool job: a nested forEach then
 *  runs inline instead of re-entering the pool. */
thread_local bool t_in_pool = false;

/**
 * One worker's claimable range of item indices [next, end). Owners
 * claim chunks from their own queue; thieves claim single items once
 * their own queue is dry. fetch_add past `end` is benign -- the
 * claimer sees an out-of-range index and moves on. Padded so queues
 * in a vector never share a cache line.
 */
struct alignas(64) WorkQueue
{
    std::atomic<uint64_t> next{0};
    uint64_t end = 0;
    /** Owner's claim chunk: large enough to amortize the RMW, small
     *  enough to leave steals for ragged tails. */
    uint64_t chunk = 1;

    bool looksEmpty() const
    {
        return next.load(std::memory_order_relaxed) >= end;
    }
};

} // anonymous namespace

int
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? static_cast<int>(n) : 1;
}

WorkerPool &
WorkerPool::instance()
{
    static WorkerPool pool;
    return pool;
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_cv_.notify_all();
    for (std::thread &t : helpers_)
        t.join();
}

void
WorkerPool::reserve(unsigned helpers)
{
    std::lock_guard<std::mutex> lock(mutex_);
    while (helpers_.size() < helpers) {
        unsigned id = static_cast<unsigned>(helpers_.size());
        helpers_.emplace_back([this, id] { helperMain(id); });
    }
}

void
WorkerPool::forEach(uint64_t items, unsigned workers,
                    const std::function<void(uint64_t, unsigned)> &body)
{
    workers = static_cast<unsigned>(std::min<uint64_t>(workers, items));
    if (workers <= 1 || t_in_pool) {
        for (uint64_t i = 0; i < items; ++i)
            body(i, 0);
        return;
    }

    std::lock_guard<std::mutex> caller(call_mutex_);
    std::vector<WorkQueue> queues(workers);
    for (unsigned w = 0; w < workers; ++w) {
        uint64_t lo = items * w / workers;
        uint64_t hi = items * (w + 1) / workers;
        queues[w].next.store(lo, std::memory_order_relaxed);
        queues[w].end = hi;
        queues[w].chunk = std::max<uint64_t>(1, (hi - lo) / 8);
    }
    std::exception_ptr error;
    std::mutex error_mutex;

    std::function<void(unsigned)> job = [&](unsigned w) {
        try {
            WorkQueue &own = queues[w];
            for (;;) {
                uint64_t i = own.next.fetch_add(
                    own.chunk, std::memory_order_relaxed);
                if (i >= own.end)
                    break;
                uint64_t hi = std::min(i + own.chunk, own.end);
                for (; i < hi; ++i)
                    body(i, w);
            }
            // Own queue dry: steal single items until a full sweep
            // of the other queues finds nothing.
            for (bool stole = true; stole;) {
                stole = false;
                for (unsigned v = 1; v < workers; ++v) {
                    WorkQueue &q = queues[(w + v) % workers];
                    if (q.looksEmpty())
                        continue;
                    uint64_t i =
                        q.next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= q.end)
                        continue;
                    body(i, w);
                    stole = true;
                }
            }
        } catch (...) {
            {
                std::lock_guard<std::mutex> guard(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
            // Drain every queue so peers stop claiming promptly.
            for (WorkQueue &q : queues)
                q.next.store(q.end, std::memory_order_relaxed);
        }
    };

    reserve(workers - 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &job;
        active_helpers_ = workers - 1;
        outstanding_ = workers - 1;
        ++epoch_;
    }
    wake_cv_.notify_all();
    t_in_pool = true;
    job(0); // never throws: the job captures its body's exceptions
    t_in_pool = false;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait(lock, [this] { return outstanding_ == 0; });
        job_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
WorkerPool::helperMain(unsigned id)
{
    t_in_pool = true;
    uint64_t seen_epoch = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_cv_.wait(lock, [&] {
            return stop_ || epoch_ != seen_epoch;
        });
        if (stop_)
            return;
        seen_epoch = epoch_;
        if (id >= active_helpers_)
            continue; // parked out of this epoch
        const std::function<void(unsigned)> *job = job_;
        lock.unlock();
        (*job)(id + 1);
        lock.lock();
        if (--outstanding_ == 0)
            done_cv_.notify_all();
    }
}

} // namespace ulpdp
