/**
 * @file
 * Tests for the parallel fleet engine: the bit-exact determinism
 * contract across thread counts and runs, the degenerate-seed guard
 * in the shard seeder, stream independence of adjacent nodes, and the
 * engine's statistical and accounting behaviour.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "fleet/fleet.h"
#include "fleet/grid_tally.h"
#include "fleet/seeder.h"
#include "rng/tausworthe.h"

namespace ulpdp {
namespace {

uint64_t
bits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Bitwise equality of two double vectors. */
bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (bits(a[i]) != bits(b[i]))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Seeder
// ---------------------------------------------------------------------

TEST(FleetSeeder, NodeSeedsNeverDegenerate)
{
    // Degenerate Tausworthe seeds get silently bumped by the
    // constructor, aliasing two streams; the seeder must never emit
    // one, whatever the master seed.
    for (uint64_t master : {uint64_t{0}, uint64_t{1}, uint64_t{42},
                            ~uint64_t{0}}) {
        FleetSeeder seeder(master);
        for (uint32_t cohort = 0; cohort < 3; ++cohort) {
            for (uint64_t node = 0; node < 2000; ++node) {
                uint64_t s = seeder.nodeSeed(cohort, node);
                EXPECT_NE(s, 0u);
                EXPECT_FALSE(Tausworthe::seedDegenerate(s));
            }
        }
    }
}

TEST(FleetSeeder, SeedsDistinctAcrossNodesAndCohorts)
{
    FleetSeeder seeder(7);
    std::set<uint64_t> seen;
    for (uint32_t cohort = 0; cohort < 4; ++cohort)
        for (uint64_t node = 0; node < 5000; ++node)
            seen.insert(seeder.nodeSeed(cohort, node));
    EXPECT_EQ(seen.size(), 4u * 5000u);
}

TEST(FleetSeeder, SubSeedDecorrelatedFromNodeSeed)
{
    FleetSeeder seeder(7);
    for (uint64_t node = 0; node < 100; ++node) {
        uint64_t base = seeder.nodeSeed(0, node);
        uint64_t sub0 = seeder.nodeSubSeed(0, node, 0);
        uint64_t sub1 = seeder.nodeSubSeed(0, node, 1);
        EXPECT_NE(base, sub0);
        EXPECT_NE(sub0, sub1);
    }
    // Deterministic.
    EXPECT_EQ(seeder.nodeSubSeed(2, 17, 3),
              FleetSeeder(7).nodeSubSeed(2, 17, 3));
}

// The SplitMix64 finalizer is a bijection (two xorshift-multiply
// steps), so it can be inverted to *construct* seeds whose expanded
// component words are degenerate -- random search would need ~2^27
// tries per hit.

uint64_t
mulInverse(uint64_t a)
{
    // Newton iteration doubles the valid low bits each round.
    uint64_t x = a;
    for (int i = 0; i < 6; ++i)
        x *= 2 - a * x;
    return x;
}

uint64_t
invXorShift(uint64_t z, int shift)
{
    uint64_t x = z;
    for (int i = 0; i < 7; ++i)
        x = z ^ (x >> shift);
    return x;
}

/** The SplitMix64 finalizer used by Tausworthe::expandSeed. */
uint64_t
smFinalize(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
smFinalizeInverse(uint64_t z)
{
    z = invXorShift(z, 31);
    z *= mulInverse(0x94d049bb133111ebULL);
    z = invXorShift(z, 27);
    z *= mulInverse(0xbf58476d1ce4e5b9ULL);
    z = invXorShift(z, 30);
    return z;
}

constexpr uint64_t kSmGamma = 0x9e3779b97f4a7c15ULL;

TEST(FleetSeeder, FinalizerInverseRoundTrips)
{
    for (uint64_t z : {uint64_t{1}, uint64_t{0xdeadbeef},
                       uint64_t{0x123456789abcdef0ULL}, ~uint64_t{0}}) {
        EXPECT_EQ(smFinalize(smFinalizeInverse(z)), z);
        EXPECT_EQ(smFinalizeInverse(smFinalize(z)), z);
    }
}

TEST(FleetSeeder, DetectsCraftedDegenerateSeeds)
{
    // Seed whose FIRST expanded word is 0 (< 2): the first SplitMix64
    // output is finalize(seed + gamma), so invert the target.
    uint64_t s1_zero =
        smFinalizeInverse(0xdeadbeef00000000ULL) - kSmGamma;
    uint32_t s1, s2, s3;
    Tausworthe::expandSeed(s1_zero, s1, s2, s3);
    ASSERT_EQ(s1, 0u);
    EXPECT_TRUE(Tausworthe::seedDegenerate(s1_zero));

    // Seed whose SECOND expanded word is 5 (< 8).
    uint64_t s2_five =
        smFinalizeInverse(0x1234567800000005ULL) - 2 * kSmGamma;
    Tausworthe::expandSeed(s2_five, s1, s2, s3);
    ASSERT_EQ(s2, 5u);
    EXPECT_TRUE(Tausworthe::seedDegenerate(s2_five));

    // Seed whose THIRD expanded word is 15 (< 16).
    uint64_t s3_low =
        smFinalizeInverse(0xcafef00d0000000fULL) - 3 * kSmGamma;
    Tausworthe::expandSeed(s3_low, s1, s2, s3);
    ASSERT_EQ(s3, 15u);
    EXPECT_TRUE(Tausworthe::seedDegenerate(s3_low));

    // The constructor bumps exactly these words (the aliasing the
    // seeder exists to avoid): seed zero is also degenerate.
    EXPECT_TRUE(Tausworthe::seedDegenerate(0));

    // An ordinary seed is not degenerate.
    EXPECT_FALSE(Tausworthe::seedDegenerate(1));
    EXPECT_FALSE(Tausworthe::seedDegenerate(42));
}

TEST(FleetSeeder, AdjacentNodeStreamsNoOverlapOverMillionDraws)
{
    // Two adjacent nodes' Tausworthe streams must not collide: a
    // collision means the trajectories merge and stay merged forever
    // (the generators are deterministic), halving the fleet's
    // entropy. Compare full (s1, s2, s3) state triples -- comparing
    // 32-bit outputs would drown in birthday-paradox false positives
    // over 2 x 10^6 draws.
    FleetSeeder seeder(1);
    Tausworthe a(seeder.nodeSeed(0, 0));
    Tausworthe b(seeder.nodeSeed(0, 1));

    const size_t kDraws = 1000000;
    std::vector<std::pair<uint64_t, uint64_t>> states_a;
    states_a.reserve(kDraws);
    for (size_t i = 0; i < kDraws; ++i) {
        states_a.emplace_back(
            (static_cast<uint64_t>(a.s1()) << 32) | a.s2(), a.s3());
        a.next32();
    }
    std::sort(states_a.begin(), states_a.end());

    size_t collisions = 0;
    for (size_t i = 0; i < kDraws; ++i) {
        std::pair<uint64_t, uint64_t> s{
            (static_cast<uint64_t>(b.s1()) << 32) | b.s2(), b.s3()};
        if (std::binary_search(states_a.begin(), states_a.end(), s))
            ++collisions;
        b.next32();
    }
    EXPECT_EQ(collisions, 0u);
}

// ---------------------------------------------------------------------
// Determinism contract
// ---------------------------------------------------------------------

FleetConfig
smallFleet()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    FleetConfig fc;
    fc.master_seed = 99;
    fc.block_nodes = 256; // several blocks per cohort
    CohortConfig thr;
    thr.name = "thr";
    thr.mechanism_name = "thresholding";
    thr.params = p;
    thr.nodes = 2500;
    thr.reports_per_node = 4;
    thr.budget_per_node = 2.5; // 2 fresh reports at 2*eps
    thr.materialize = true;
    thr.analyze_loss = false;
    CohortConfig res;
    res.name = "res";
    res.mechanism_name = "resampling";
    res.params = p;
    res.nodes = 2500;
    res.reports_per_node = 4;
    res.analyze_loss = false;
    fc.cohorts = {thr, res};
    return fc;
}

void
expectIdentical(const FleetReport &x, const FleetReport &y)
{
    EXPECT_EQ(x.fingerprint(), y.fingerprint());
    ASSERT_EQ(x.cohorts.size(), y.cohorts.size());
    for (size_t c = 0; c < x.cohorts.size(); ++c) {
        const CohortResult &a = x.cohorts[c];
        const CohortResult &b = y.cohorts[c];
        EXPECT_EQ(a.checksum, b.checksum);

        // Floating-point aggregates must match to the BIT, not to a
        // tolerance: that is the whole determinism contract.
        EXPECT_EQ(bits(a.released_stats.mean()),
                  bits(b.released_stats.mean()));
        EXPECT_EQ(bits(a.released_stats.variance()),
                  bits(b.released_stats.variance()));
        EXPECT_EQ(bits(a.error_stats.mean()),
                  bits(b.error_stats.mean()));
        EXPECT_EQ(bits(a.mean_mae), bits(b.mean_mae));
        EXPECT_TRUE(sameBits(a.trial_estimate, b.trial_estimate));
        EXPECT_TRUE(sameBits(a.matrix, b.matrix));

        ASSERT_EQ(a.released_hist.numBins(),
                  b.released_hist.numBins());
        for (size_t i = 0; i < a.released_hist.numBins(); ++i)
            EXPECT_EQ(a.released_hist.count(i),
                      b.released_hist.count(i));
        EXPECT_EQ(a.released_hist.underflow(),
                  b.released_hist.underflow());
        EXPECT_EQ(a.released_hist.overflow(),
                  b.released_hist.overflow());

        EXPECT_EQ(a.samples_drawn, b.samples_drawn);
        EXPECT_EQ(a.resample_overflows, b.resample_overflows);
        EXPECT_EQ(a.fresh_reports, b.fresh_reports);
        EXPECT_EQ(a.cache_replays, b.cache_replays);
        EXPECT_EQ(a.nodes_exhausted, b.nodes_exhausted);
        EXPECT_EQ(a.rng_integrity_detections,
                  b.rng_integrity_detections);
    }
}

TEST(FleetDeterminism, BitIdenticalAcrossThreadCounts)
{
    FleetRunner runner(smallFleet());
    FleetReport one = runner.run(1);
    FleetReport three = runner.run(3);
    FleetReport eight = runner.run(8);
    expectIdentical(one, three);
    expectIdentical(one, eight);
}

TEST(FleetDeterminism, BitIdenticalAcrossSameSeedRuns)
{
    FleetRunner first(smallFleet());
    FleetRunner second(smallFleet());
    expectIdentical(first.run(3), second.run(8));
}

TEST(FleetDeterminism, DifferentMasterSeedDiffers)
{
    FleetConfig fc = smallFleet();
    FleetRunner a(fc);
    fc.master_seed = 100;
    FleetRunner b(fc);
    EXPECT_NE(a.run(2).fingerprint(), b.run(2).fingerprint());
}

// ---------------------------------------------------------------------
// Engine behaviour
// ---------------------------------------------------------------------

TEST(FleetEngine, EstimateTracksTruthAndWindowHolds)
{
    FleetConfig fc = smallFleet();
    fc.cohorts[0].nodes = 20000;
    fc.cohorts[0].budget_per_node = 0.0; // no metering
    fc.cohorts[0].materialize = false;
    fc.cohorts.resize(1);
    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &c = rep.cohorts[0];

    EXPECT_EQ(c.nodes, 20000u);
    EXPECT_EQ(c.reports, 20000u * 4u);
    EXPECT_EQ(c.true_stats.count(), 20000u);
    EXPECT_EQ(c.fresh_reports, c.reports);
    EXPECT_EQ(c.cache_replays, 0u);
    EXPECT_EQ(c.nodes_exhausted, 0u);
    EXPECT_EQ(c.samples_drawn, c.reports);

    // Synthetic data defaults to the range center; the mean estimate
    // over 80k thresholded reports should sit close to the truth.
    EXPECT_NEAR(c.trueMean(), 5.0, 0.1);
    EXPECT_NEAR(c.estimatedMean(), c.trueMean(), 0.5);

    // Thresholding confines every release to the clamp window, which
    // is exactly the histogram's binned range.
    EXPECT_EQ(c.released_hist.underflow(), 0u);
    EXPECT_EQ(c.released_hist.overflow(), 0u);
    EXPECT_EQ(c.released_hist.total(), c.reports);

    // Ordered merge: every trial estimate is a real number near the
    // truth, and mean_mae summarises them.
    ASSERT_EQ(c.trial_estimate.size(), 4u);
    for (double e : c.trial_estimate)
        EXPECT_NEAR(e, c.trueMean(), 0.5);
    EXPECT_GE(c.mean_mae, 0.0);
}

TEST(FleetEngine, BudgetMeteringCountsFreshAndReplayed)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    c.nodes = 1000;
    c.reports_per_node = 5;
    // Worst-case charge is loss_multiple * eps = 1.0 per fresh
    // report; a budget of 2.1 affords exactly 2 of the 5.
    c.budget_per_node = 2.1;

    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &r = rep.cohorts[0];
    EXPECT_EQ(r.fresh_reports, 1000u * 2u);
    EXPECT_EQ(r.cache_replays, 1000u * 3u);
    EXPECT_EQ(r.nodes_exhausted, 1000u);
    EXPECT_EQ(r.reports, 1000u * 5u);
    // Replays draw no randomness.
    EXPECT_EQ(r.samples_drawn, r.fresh_reports);
}

TEST(FleetEngine, DatasetReplayUsesProvidedValues)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    c.budget_per_node = 0.0;
    c.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
    c.nodes = 3; // ignored when values are given
    c.reports_per_node = 10;
    c.materialize = true;

    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &r = rep.cohorts[0];
    EXPECT_EQ(r.nodes, 8u);
    EXPECT_EQ(r.true_stats.count(), 8u);
    EXPECT_DOUBLE_EQ(r.trueMean(), 4.5);
    EXPECT_DOUBLE_EQ(r.true_stats.min(), 1.0);
    EXPECT_DOUBLE_EQ(r.true_stats.max(), 8.0);
}

TEST(FleetEngine, MaterializedMatrixMatchesStreamingAggregates)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    c.nodes = 1500;
    c.reports_per_node = 3;
    c.budget_per_node = 0.0;
    c.materialize = true;

    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &r = rep.cohorts[0];
    ASSERT_EQ(r.matrix.size(), 1500u * 3u);

    for (uint32_t t = 0; t < 3; ++t) {
        std::vector<double> row = r.trialReports(t);
        ASSERT_EQ(row.size(), 1500u);
        double sum = 0.0;
        for (double v : row)
            sum += v;
        // The streaming trial estimate merges block partial sums in
        // block order; summing the materialized row in node order can
        // differ only by rounding.
        EXPECT_NEAR(sum / 1500.0, r.trial_estimate[t], 1e-9);
    }

    // Every matrix cell was written (all values are in the clamp
    // window, far from the 0.0 fill).
    RunningStats from_matrix;
    for (double v : r.matrix)
        from_matrix.add(v);
    EXPECT_EQ(from_matrix.count(), r.released_stats.count());
    EXPECT_NEAR(from_matrix.mean(), r.released_stats.mean(), 1e-9);
}

TEST(FleetEngine, IdealCohortIsLdpAtEpsilon)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    c.mechanism_name = "ideal";
    c.nodes = 500;
    c.budget_per_node = 0.0;
    c.analyze_loss = true;

    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    const CohortResult &r = rep.cohorts[0];
    EXPECT_TRUE(r.ldp);
    EXPECT_DOUBLE_EQ(r.worst_loss, 0.5);
    EXPECT_EQ(r.mechanism, "ideal");
}

TEST(FleetEngine, LossAnalysisMatchesMechanismClass)
{
    // With the exact analysis on, the naive cohort is flagged non-LDP
    // (unbounded loss) while both range-controlled cohorts satisfy
    // the 2*eps bound -- the paper's core claim, now at fleet scale.
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    FleetConfig fc;
    fc.master_seed = 5;
    auto makeCohort = [&](const char *mechanism) {
        CohortConfig c;
        c.mechanism_name = mechanism;
        c.params = p;
        c.nodes = 64;
        c.reports_per_node = 1;
        c.analyze_loss = true;
        return c;
    };
    fc.cohorts = {makeCohort("naive"), makeCohort("resampling"),
                  makeCohort("thresholding")};
    FleetRunner runner(fc);
    FleetReport rep = runner.run();
    EXPECT_FALSE(rep.cohorts[0].ldp);
    EXPECT_TRUE(std::isinf(rep.cohorts[0].worst_loss));
    EXPECT_TRUE(rep.cohorts[1].ldp);
    EXPECT_LE(rep.cohorts[1].worst_loss, 1.0 + 1e-9);
    EXPECT_TRUE(rep.cohorts[2].ldp);
    EXPECT_LE(rep.cohorts[2].worst_loss, 1.0 + 1e-9);
}

TEST(FleetEngine, ThreadZeroSelectsHardware)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    fc.cohorts[0].nodes = 300;
    FleetRunner runner(fc);
    FleetReport rep = runner.run(0);
    EXPECT_GE(rep.threads, 1u);
    EXPECT_GT(rep.total_reports, 0u);
    EXPECT_GT(rep.reportsPerSecond(), 0.0);
}

// ---------------------------------------------------------------------
// Persistent-pool / work-stealing stress (TSan-clean by construction:
// the fleet-smoke CI job runs this file under ULPDP_SANITIZE=thread)
// ---------------------------------------------------------------------

/** Restores the process-wide scalar-block switch on scope exit so a
 *  failing assertion cannot leak forced-scalar mode into later
 *  tests. */
struct ScopedForceScalar
{
    explicit ScopedForceScalar(bool on)
    {
        FleetRunner::forceScalarBlocks(on);
    }
    ~ScopedForceScalar() { FleetRunner::forceScalarBlocks(false); }
};

/**
 * Ragged fleet: node counts that are multiples of neither the
 * scheduling block size nor the 16-lane batch width, a block size
 * that is itself not a lane multiple, and cohorts of very different
 * sizes so the static per-worker queue split is lopsided and the
 * stealing path must run.
 */
FleetConfig
raggedFleet()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;

    FleetConfig fc;
    fc.master_seed = 1234;
    fc.block_nodes = 83; // prime: never a multiple of 16 lanes
    auto makeCohort = [&](const char *name, const char *mechanism,
                          uint64_t nodes, uint32_t reports) {
        CohortConfig c;
        c.name = name;
        c.mechanism_name = mechanism;
        c.params = p;
        c.nodes = nodes;
        c.reports_per_node = reports;
        c.analyze_loss = false;
        return c;
    };
    fc.cohorts = {
        makeCohort("thr", "thresholding", 997, 3),
        makeCohort("res", "resampling", 2503, 2),
        makeCohort("tiny", "thresholding", 7, 5),
        makeCohort("ideal", "ideal", 61, 1),
    };
    return fc;
}

TEST(FleetStress, RaggedCohortsBitExactAcrossThreadCounts)
{
    FleetRunner runner(raggedFleet());
    FleetReport base = runner.run(1);
    for (unsigned threads : {2u, 3u, 8u, 16u}) {
        FleetReport rep = runner.run(threads);
        SCOPED_TRACE(threads);
        expectIdentical(base, rep);
    }
}

TEST(FleetStress, RepeatedEpochsOnOneRunnerReuseParkedPool)
{
    // Many epochs on ONE runner instance, alternating thread counts
    // up and down: the pool must wake exactly the requested worker
    // set each epoch, leave the surplus parked, and never leave a
    // stale job visible to a parked thread (a UAF here is what TSan
    // and ASan watch for -- the job lambda dies with each run()).
    FleetRunner runner(raggedFleet());
    FleetReport base = runner.run(8);
    for (unsigned threads : {1u, 16u, 2u, 8u, 3u, 1u, 16u}) {
        FleetReport rep = runner.run(threads);
        SCOPED_TRACE(threads);
        EXPECT_EQ(rep.fingerprint(), base.fingerprint());
    }
    expectIdentical(base, runner.run(8));
}

TEST(FleetStress, ForcedScalarMatchesBatchedUnderStealing)
{
    // The work-stealing path must be bit-exact in both execution
    // modes, and the two modes must agree with each other -- the
    // batch layer's core contract, now exercised through ragged
    // steal-heavy schedules instead of the uniform smallFleet().
    FleetRunner runner(raggedFleet());
    FleetReport batched = runner.run(8);
    {
        ScopedForceScalar forced(true);
        FleetReport scalar8 = runner.run(8);
        FleetReport scalar3 = runner.run(3);
        expectIdentical(batched, scalar8);
        expectIdentical(batched, scalar3);
    }
    // And back: leaving forced-scalar mode restores the batch path
    // with the same merged bits.
    expectIdentical(batched, runner.run(16));
}

TEST(FleetStress, RunnersAreIndependentAfterTeardown)
{
    // A runner's parked threads belong to that runner; destroying it
    // must join them (no leaked threads touching freed queues), and a
    // fresh runner must reproduce the same report from scratch.
    uint64_t fp_first = 0;
    {
        FleetRunner runner(raggedFleet());
        fp_first = runner.run(8).fingerprint();
    } // ~FleetRunner joins the pool here
    FleetRunner again(raggedFleet());
    EXPECT_EQ(again.run(16).fingerprint(), fp_first);
    EXPECT_EQ(again.run(1).fingerprint(), fp_first);
}

TEST(FleetStress, BudgetedRaggedCohortsReplayDeterministically)
{
    // Replay bookkeeping (exhausted nodes, cache replays) must also
    // be schedule-independent on the stealing path.
    FleetConfig fc = raggedFleet();
    fc.cohorts[0].budget_per_node = 2.1; // 2 of 3 reports fresh
    fc.cohorts[1].budget_per_node = 1.0; // 1 of 2 reports fresh
    FleetRunner runner(fc);
    FleetReport one = runner.run(1);
    FleetReport many = runner.run(16);
    expectIdentical(one, many);
    EXPECT_EQ(one.cohorts[0].nodes_exhausted, 997u);
    EXPECT_EQ(one.cohorts[0].cache_replays, 997u);
    EXPECT_EQ(one.cohorts[1].nodes_exhausted, 2503u);
    EXPECT_EQ(one.cohorts[1].cache_replays, 2503u);
}

// ---------------------------------------------------------------------
// Mechanism registry integration
// ---------------------------------------------------------------------

TEST(FleetRegistry, NamedSelectionIsFingerprintImmune)
{
    // Selecting by registry name routes through the registered
    // lowering, which must reproduce the hard-wired thresholding /
    // resampling reports bit for bit: the literal is the fingerprint
    // smallFleet() produces with that pair (re-pinned once when the
    // released moments moved to exact integer sums; the reports and
    // every counter are unchanged, see FleetExact.*), and it must
    // not move at any thread count.
    FleetConfig fc = smallFleet();
    ASSERT_EQ(fc.cohorts[0].mechanism_name, "thresholding");
    ASSERT_EQ(fc.cohorts[1].mechanism_name, "resampling");
    FleetRunner runner(fc);
    for (unsigned threads : {1u, 4u}) {
        FleetReport rep = runner.run(threads);
        EXPECT_EQ(rep.fingerprint(), 0x8937d26142401729ULL)
            << "threads=" << threads;
        EXPECT_EQ(rep.cohorts[0].mechanism, "thresholding");
        EXPECT_EQ(rep.cohorts[1].mechanism, "resampling");
    }
    // The forced scalar path lands on the same literal.
    ScopedForceScalar forced(true);
    EXPECT_EQ(runner.run(2).fingerprint(), 0x8937d26142401729ULL);
}

TEST(FleetRegistry, DefaultCohortRunsThresholding)
{
    // A cohort that never names a mechanism runs thresholding, the
    // paper's default device mode, under its certified bound.
    FleetConfig fc = smallFleet();
    CohortConfig c;
    c.name = "default";
    c.params = fc.cohorts[0].params;
    c.nodes = 700;
    c.reports_per_node = 2;
    fc.cohorts = {c};
    FleetRunner runner(fc);
    FleetReport rep = runner.run(2);
    const CohortResult &r = rep.cohorts[0];
    EXPECT_EQ(r.mechanism, "thresholding");
    EXPECT_TRUE(r.ldp);
    EXPECT_LE(r.worst_loss, c.loss_multiple * c.params.epsilon + 1e-9);
    EXPECT_EQ(r.reports, 1400u);
}

TEST(FleetRegistry, RejectsUnusableNames)
{
    // Empty and unknown names, and a registered mechanism with no
    // fleet lowering, are all refused at plan time: a cohort never
    // silently falls back to some other mechanism.
    for (const char *name :
         {"", "laplace", "Thresholding", "constant-time-resampling"}) {
        FleetConfig fc = smallFleet();
        fc.cohorts[1].mechanism_name = name;
        EXPECT_THROW(FleetRunner runner(fc), FatalError)
            << "mechanism '" << name << "'";
    }

    // The unknown-name message lists every name a cohort may use.
    FleetConfig fc = smallFleet();
    fc.cohorts[0].mechanism_name = "laplace";
    try {
        FleetRunner runner(fc);
        FAIL() << "unknown mechanism accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        for (const char *name :
             {"thresholding", "resampling", "bounded-laplace",
              "discrete-laplace", "ideal", "naive"})
            EXPECT_NE(msg.find(name), std::string::npos) << name;
    }
}

TEST(FleetRegistry, BoundedCohortConfinesOutputsAndIsLdp)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(1);
    CohortConfig &c = fc.cohorts[0];
    c.name = "bounded";
    c.mechanism_name = "bounded-laplace";
    c.nodes = 2000;
    c.budget_per_node = 0.0;
    c.analyze_loss = true;
    c.materialize = true;

    FleetRunner runner(fc);
    FleetReport rep = runner.run(4);
    const CohortResult &res = rep.cohorts[0];
    EXPECT_EQ(res.mechanism, "bounded-laplace");
    EXPECT_TRUE(res.ldp);
    EXPECT_LE(res.worst_loss, 2.0 * c.params.epsilon + 1e-9);
    // T = 0: every materialized report stays inside the sensor range.
    for (double y : res.matrix) {
        EXPECT_GE(y, c.params.range.lo);
        EXPECT_LE(y, c.params.range.hi);
    }
    // Determinism holds for registry-selected mechanisms too.
    FleetRunner again(fc);
    expectIdentical(rep, again.run(1));
}

TEST(FleetRegistry, DiscreteCohortTracksResamplingUtility)
{
    FleetConfig fc = smallFleet();
    fc.cohorts.resize(2);
    fc.cohorts[0].name = "res";
    fc.cohorts[0].mechanism_name = "resampling";
    fc.cohorts[0].budget_per_node = 0.0;
    fc.cohorts[0].nodes = 20000;
    fc.cohorts[0].analyze_loss = true;
    fc.cohorts[1] = fc.cohorts[0];
    fc.cohorts[1].name = "disc";
    fc.cohorts[1].mechanism_name = "discrete-laplace";

    FleetRunner runner(fc);
    FleetReport rep = runner.run(4);
    const CohortResult &res = rep.cohorts[0];
    const CohortResult &disc = rep.cohorts[1];
    EXPECT_TRUE(disc.ldp);
    EXPECT_EQ(disc.mechanism, "discrete-laplace");
    // The Floor pipeline's doubled zero atom costs ln 2 of loss,
    // paid for by scale inflation: utility is worse than resampling
    // but by a bounded factor, not a different regime.
    EXPECT_GT(disc.mean_mae, 0.5 * res.mean_mae);
    EXPECT_LT(disc.mean_mae, 6.0 * res.mean_mae + 0.05);
}

// ---------------------------------------------------------------------
// Integer-exact accumulation
// ---------------------------------------------------------------------

uint64_t
chain(uint64_t acc, uint64_t word)
{
    return FleetSeeder::mix64(acc ^ word);
}

/**
 * The fields of one cohort that do not depend on how released values
 * are summed: the report checksum, the histogram counts, the six
 * counters, the agg slot totals and the true-reading moments.
 */
struct UntouchedFields
{
    uint64_t checksum;
    uint64_t hist;
    uint64_t counters;
    uint64_t agg_slots;
    uint64_t true_stats;

    static UntouchedFields of(const CohortResult &c)
    {
        UntouchedFields u{};
        u.checksum = c.checksum;
        u.hist = 0x4157;
        for (size_t i = 0; i < c.released_hist.numBins(); ++i)
            u.hist = chain(u.hist, c.released_hist.count(i));
        u.hist = chain(u.hist, c.released_hist.underflow());
        u.hist = chain(u.hist, c.released_hist.overflow());
        u.counters = 0xc0;
        for (uint64_t v : {c.samples_drawn, c.resample_overflows,
                           c.fresh_reports, c.cache_replays,
                           c.nodes_exhausted,
                           c.rng_integrity_detections})
            u.counters = chain(u.counters, v);
        u.agg_slots = 0xa99;
        if (c.agg) {
            for (uint64_t s : c.agg->sketch.slotTotals())
                u.agg_slots = chain(u.agg_slots, s);
            u.agg_slots = chain(u.agg_slots, c.agg->dropped);
        }
        u.true_stats = 0x7e;
        for (uint64_t v :
             {c.true_stats.count(), bits(c.true_stats.mean()),
              bits(c.true_stats.variance()), bits(c.true_stats.min()),
              bits(c.true_stats.max())})
            u.true_stats = chain(u.true_stats, v);
        return u;
    }
};

void
expectUntouched(const FleetReport &rep,
                const std::vector<UntouchedFields> &pinned)
{
    ASSERT_EQ(rep.cohorts.size(), pinned.size());
    for (size_t c = 0; c < pinned.size(); ++c) {
        UntouchedFields u = UntouchedFields::of(rep.cohorts[c]);
        SCOPED_TRACE(rep.cohorts[c].name);
        EXPECT_EQ(u.checksum, pinned[c].checksum);
        EXPECT_EQ(u.hist, pinned[c].hist);
        EXPECT_EQ(u.counters, pinned[c].counters);
        EXPECT_EQ(u.agg_slots, pinned[c].agg_slots);
        EXPECT_EQ(u.true_stats, pinned[c].true_stats);
    }
}

/** smallFleet() with streaming aggregation on both cohorts. */
FleetConfig
smallAggFleet()
{
    FleetConfig fc = smallFleet();
    for (CohortConfig &c : fc.cohorts)
        c.agg.enabled = true;
    return fc;
}

/**
 * One cohort per accumulation mode: a grid cohort with agg, a naive
 * cohort (no window), a cohort whose budget affords no fresh report
 * (every report is the range midpoint, off the output grid), an
 * Ideal cohort (continuous values) and a bounded-Laplace cohort.
 */
FleetConfig
modesFleet()
{
    FleetConfig fc = smallFleet();
    CohortConfig base = fc.cohorts[1];
    base.materialize = false;
    base.nodes = 1100;
    base.reports_per_node = 3;
    auto cohort = [&](const char *name, const char *mechanism) {
        CohortConfig c = base;
        c.name = name;
        c.mechanism_name = mechanism;
        return c;
    };
    fc.cohorts = {cohort("disc", "discrete-laplace"),
                  cohort("naive", "naive"),
                  cohort("broke", "thresholding"),
                  cohort("ideal", "ideal"),
                  cohort("bounded", "bounded-laplace")};
    fc.cohorts[0].agg.enabled = true;
    fc.cohorts[0].agg.per_trial = true;
    fc.cohorts[1].agg.enabled = true;
    fc.cohorts[2].budget_per_node = 0.1; // below one 2*eps charge
    return fc;
}

TEST(FleetExact, UntouchedFieldsMatchWelfordEngine)
{
    // Literals recorded from the engine that still accumulated every
    // report through Welford, a float histogram bin and double trial
    // sums. Summing released values exactly must not move any of
    // these fields.
    const std::vector<UntouchedFields> small = {
        {0x149689eea286a258ULL, 0x57cc4cbb6b7f2b62ULL,
         0x88171413369c32d3ULL, 0x9a208a0dac6f486cULL,
         0x41035add4fe2c50dULL},
        {0xb880f3a8e603de73ULL, 0x11689662b926fee5ULL,
         0x72c588cdddc2f786ULL, 0xd1fdac7db2a4ff32ULL,
         0x4383ca7f27433ec3ULL},
    };
    const std::vector<UntouchedFields> modes = {
        {0x7795fca62be1490fULL, 0xc5b2a684f5c7aee3ULL,
         0xf22751125ba3ccfeULL, 0x6ea1a4a5373b454cULL,
         0x7c2bc1dc75afea0eULL},
        {0x093aa478bb23c7deULL, 0x578cf6e41ae7d843ULL,
         0xf22751125ba3ccfeULL, 0x95fa2cebf97d2542ULL,
         0x2397d49c22e5c25aULL},
        {0xb1219adde5561195ULL, 0xe39f229f8f474eb6ULL,
         0xb167e23a5edb8e87ULL, 0x0000000000000a99ULL,
         0x76b7a4d3758cef71ULL},
        {0xb143cad100b3bb83ULL, 0x5f742565e18d0791ULL,
         0xf22751125ba3ccfeULL, 0x0000000000000a99ULL,
         0xcd5ee04e249f27fcULL},
        {0xd53ec630e9dc2dccULL, 0xccab41ea513f1cf7ULL,
         0xf22751125ba3ccfeULL, 0x0000000000000a99ULL,
         0x9c75641b5d347a6aULL},
    };
    FleetRunner small_runner(smallAggFleet());
    FleetRunner modes_runner(modesFleet());
    for (unsigned threads : {1u, 3u}) {
        SCOPED_TRACE(threads);
        expectUntouched(small_runner.run(threads), small);
        expectUntouched(modes_runner.run(threads), modes);
    }
}

/** Distance in units in the last place between two finite doubles. */
uint64_t
ulpsApart(double a, double b)
{
    auto key = [](double v) {
        int64_t i;
        std::memcpy(&i, &v, sizeof i);
        return i < 0 ? std::numeric_limits<int64_t>::min() - i : i;
    };
    int64_t ka = key(a);
    int64_t kb = key(b);
    return ka > kb ? static_cast<uint64_t>(ka - kb)
                   : static_cast<uint64_t>(kb - ka);
}

/** Relative distance, against 1 when the reference is tiny. */
double
relErr(double got, long double want)
{
    long double scale = std::max(std::fabs(want), 1.0L);
    return static_cast<double>(std::fabs(got - want) / scale);
}

TEST(FleetExact, MomentsMatchTwoPassReference)
{
    // Every grid mechanism, with cache replays and with a cohort that
    // only ever replays the midpoint, against a two-pass long double
    // reference over the materialized reports. Dataset replay makes
    // each node's true reading known to the test.
    FleetConfig fc = smallFleet();
    CohortConfig base = fc.cohorts[0];
    base.nodes = 0;
    base.reports_per_node = 5;
    base.budget_per_node = 3.5; // 3 fresh at 2*eps, 2 replays
    base.materialize = true;
    base.values.clear();
    for (int i = 0; i < 1999; ++i)
        base.values.push_back(
            10.0 * std::fmod(0.6180339887498949 * (i + 1), 1.0));
    auto cohort = [&](const char *name, const char *mechanism) {
        CohortConfig c = base;
        c.name = name;
        c.mechanism_name = mechanism;
        return c;
    };
    fc.cohorts = {cohort("thr", "thresholding"),
                  cohort("res", "resampling"),
                  cohort("disc", "discrete-laplace"),
                  cohort("naive", "naive"),
                  cohort("bounded", "bounded-laplace"),
                  cohort("broke", "thresholding")};
    fc.cohorts[1].budget_per_node = 0.0;
    fc.cohorts[1].agg.enabled = true;
    fc.cohorts[5].budget_per_node = 0.5; // no fresh report at all

    FleetRunner runner(fc);
    FleetReport rep = runner.run(3);
    for (const CohortResult &r : rep.cohorts) {
        SCOPED_TRACE(r.name);
        const std::vector<double> &x = base.values;
        const uint64_t N = x.size();
        const uint32_t R = base.reports_per_node;
        ASSERT_EQ(r.matrix.size(), N * R);
        const long double n = static_cast<long double>(N * R);

        long double sum = 0.0L;
        long double err_sum = 0.0L;
        double lo = r.matrix[0], hi = r.matrix[0];
        double err_lo = r.matrix[0] - x[0], err_hi = err_lo;
        for (uint32_t t = 0; t < R; ++t) {
            long double trial = 0.0L;
            for (uint64_t i = 0; i < N; ++i) {
                double v = r.matrix[t * N + i];
                double e = v - x[i];
                trial += v;
                err_sum += static_cast<long double>(v) - x[i];
                lo = std::min(lo, v);
                hi = std::max(hi, v);
                err_lo = std::min(err_lo, e);
                err_hi = std::max(err_hi, e);
            }
            sum += trial;
            EXPECT_LE(ulpsApart(r.trial_estimate[t],
                                static_cast<double>(trial / N)),
                      1u)
                << "trial " << t;
        }
        const long double mean = sum / n;
        const long double err_mean = err_sum / n;
        long double ss = 0.0L;
        long double err_ss = 0.0L;
        for (uint64_t k = 0; k < N * R; ++k) {
            long double v = r.matrix[k];
            long double e = v - x[k % N];
            ss += (v - mean) * (v - mean);
            err_ss += (e - err_mean) * (e - err_mean);
        }

        EXPECT_EQ(r.released_stats.count(), N * R);
        EXPECT_LE(ulpsApart(r.released_stats.mean(),
                            static_cast<double>(mean)), 1u);
        EXPECT_LE(ulpsApart(r.released_stats.variance(),
                            static_cast<double>(ss / n)), 1u);
        EXPECT_EQ(r.released_stats.min(), lo);
        EXPECT_EQ(r.released_stats.max(), hi);

        EXPECT_EQ(r.error_stats.count(), N * R);
        EXPECT_LE(relErr(r.error_stats.mean(), err_mean), 1e-12);
        EXPECT_LE(relErr(r.error_stats.variance(), err_ss / n), 1e-12);
        EXPECT_EQ(r.error_stats.min(), err_lo);
        EXPECT_EQ(r.error_stats.max(), err_hi);
    }
}

TEST(GridTally, RestartedBlockNeverDoubleCounts)
{
    // The batch path's bail-and-redo at the accumulator level. No
    // public fleet input makes a batch block bail -- it takes a
    // corrupted sampler table, and the fleet's tables are private --
    // so this drives the tally directly: half a block is added, the
    // block restarts, and the redo must leave exactly the totals of a
    // block that never bailed. Both tally layouts are covered (own
    // slots, and slots shared with a per-trial agg sketch).
    agg::AggConfig cfg;
    cfg.enabled = true;
    cfg.per_trial = true;
    const int64_t lo = -7;
    const size_t span = 30;
    const uint32_t trials = 3;
    auto report = [](uint32_t node, uint32_t t) {
        return static_cast<int64_t>((node * 7 + t * 5) % 30) - 7;
    };
    for (bool with_sketch : {false, true}) {
        SCOPED_TRACE(with_sketch);
        auto make = [&] {
            return with_sketch
                ? GridTally(agg::CohortSketch(cfg, span, trials,
                                              -7.0 * 0.5, 0.5),
                            lo, trials)
                : GridTally(lo, span, trials);
        };
        GridTally clean = make();
        GridTally redone = make();
        for (int block = 0; block < 2; ++block) {
            clean.beginBlock();
            redone.beginBlock();
            for (uint32_t node = 0; node < 40; ++node) {
                for (uint32_t t = 0; t < trials; ++t) {
                    clean.add(t, report(block * 40 + node, t));
                    // The bailing copy gets the first 16-node group
                    // of block 1 before it restarts.
                    if (block == 1 && node < 16)
                        redone.add(t, report(block * 40 + node, t));
                }
            }
            if (block == 1) {
                redone.beginBlock();
                for (uint32_t node = 0; node < 40; ++node)
                    for (uint32_t t = 0; t < trials; ++t)
                        redone.add(t, report(block * 40 + node, t));
            } else {
                for (uint32_t node = 0; node < 40; ++node)
                    for (uint32_t t = 0; t < trials; ++t)
                        redone.add(t, report(block * 40 + node, t));
            }
            clean.endBlock();
            redone.endBlock();
        }
        EXPECT_EQ(redone.slotTotals(), clean.slotTotals());
        EXPECT_EQ(redone.trialSums(), clean.trialSums());
        EXPECT_EQ(redone.dropped(), 0u);
        uint64_t total = 0;
        for (uint64_t c : clean.slotTotals())
            total += c;
        EXPECT_EQ(total, 2u * 40u * trials);
        if (with_sketch) {
            EXPECT_EQ(redone.sketch().slots(), clean.sketch().slots());
            EXPECT_EQ(redone.sketch().total(), total);
        }
    }
}

TEST(GridTally, MergesInAnyOrderAndCountsDrops)
{
    GridTally a(0, 4, 2), b(0, 4, 2), c(0, 4, 2);
    a.beginBlock();
    a.add(0, 1);
    a.add(1, 3);
    a.add(1, 9); // outside [0, 3]: dropped, still summed per trial
    a.endBlock();
    b.beginBlock();
    b.add(0, 2);
    b.endBlock();
    c.beginBlock();
    c.add(1, 0);
    c.endBlock();
    GridTally abc = a, cba = c;
    abc.merge(b);
    abc.merge(c);
    cba.merge(b);
    cba.merge(a);
    EXPECT_EQ(abc.slotTotals(), cba.slotTotals());
    EXPECT_EQ(abc.slotTotals(), (std::vector<uint64_t>{1, 1, 1, 1}));
    EXPECT_EQ(abc.trialSums(), (std::vector<int64_t>{3, 12}));
    EXPECT_EQ(abc.dropped(), 1u);
    GridTally wider(0, 5, 2);
    EXPECT_THROW(abc.merge(wider), FatalError);
}

} // anonymous namespace
} // namespace ulpdp
