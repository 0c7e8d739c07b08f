/**
 * @file
 * Tests for the chunked parallel-for and the shared worker pool under
 * it: full disjoint coverage of the index range, serial inline path,
 * exception propagation from helper threads, nested calls, and
 * concurrent callers on different threads.
 */

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/parallel_for.h"
#include "common/worker_pool.h"

namespace ulpdp {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    for (int jobs : {1, 2, 4, 0}) {
        for (int64_t chunk : {int64_t{1}, int64_t{7}, int64_t{64}}) {
            std::vector<std::atomic<int>> hits(1000);
            parallelFor(0, 1000, jobs, chunk,
                        [&](int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i)
                                hits[static_cast<size_t>(i)]
                                    .fetch_add(1);
                        });
            for (size_t i = 0; i < hits.size(); ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << "jobs=" << jobs << " chunk=" << chunk
                    << " i=" << i;
        }
    }
}

TEST(ParallelFor, EmptyAndOffsetRanges)
{
    int calls = 0;
    parallelFor(5, 5, 4, 8,
                [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls, 0);

    std::atomic<int64_t> sum{0};
    parallelFor(10, 20, 3, 3, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            sum.fetch_add(i);
    });
    EXPECT_EQ(sum.load(), (10 + 19) * 10 / 2);
}

TEST(ParallelFor, SerialPathRunsInline)
{
    // jobs == 1 must invoke the body once over the whole range (the
    // zero-overhead degenerate case callers rely on for determinism
    // arguments).
    int calls = 0;
    parallelFor(0, 100, 1, 8, [&](int64_t lo, int64_t hi) {
        ++calls;
        EXPECT_EQ(lo, 0);
        EXPECT_EQ(hi, 100);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesWorkerExceptions)
{
    EXPECT_THROW(
        parallelFor(0, 1000, 4, 1,
                    [&](int64_t lo, int64_t) {
                        if (lo == 500)
                            throw std::runtime_error("boom");
                    }),
        std::runtime_error);
}

/** Run parallelFor over [0, n) and assert every index was hit once. */
void
expectCoveredOnce(int64_t n, int jobs, int64_t chunk)
{
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    parallelFor(0, n, jobs, chunk, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i)
            hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ParallelFor, HelperFatalErrorReachesCallerAndPoolRecovers)
{
    // Worker 0 (the caller) holds its items until a helper has
    // thrown, so the exception provably starts on a helper thread.
    std::atomic<bool> thrown{false};
    EXPECT_THROW(
        WorkerPool::instance().forEach(
            64, 4,
            [&](uint64_t, unsigned worker) {
                if (worker == 0) {
                    while (!thrown.load())
                        std::this_thread::yield();
                    return;
                }
                thrown.store(true);
                fatal("helper worker %u failed", worker);
            }),
        FatalError);
    EXPECT_TRUE(thrown.load());

    // The next dispatch on the same pool runs every item again.
    expectCoveredOnce(1000, 4, 3);
}

TEST(ParallelFor, NestedCallCoversInnerRangeOnce)
{
    constexpr int64_t kOuter = 8;
    constexpr int64_t kInner = 500;
    std::vector<std::atomic<int>> hits(
        static_cast<size_t>(kOuter * kInner));
    parallelFor(0, kOuter, 4, 1, [&](int64_t o, int64_t) {
        parallelFor(0, kInner, 4, 7, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i)
                hits[static_cast<size_t>(o * kInner + i)].fetch_add(1);
        });
    });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ParallelFor, ConcurrentCallersEachCoverTheirRange)
{
    auto caller = [](int64_t n) {
        for (int round = 0; round < 20; ++round)
            expectCoveredOnce(n, 4, 5);
    };
    std::thread a(caller, 997);
    std::thread b(caller, 1500);
    a.join();
    b.join();
}

} // anonymous namespace
} // namespace ulpdp
