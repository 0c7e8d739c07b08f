/**
 * @file
 * Tests for the cycle-level DP-Box device model: FSM phases, command
 * port semantics, latency accounting, range control, embedded budget
 * logic and replenishment.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/stats.h"
#include "dpbox/dpbox.h"
#include "dpbox/driver.h"
#include "dpbox/provisioning.h"

namespace ulpdp {
namespace {

DpBoxConfig
basicConfig()
{
    DpBoxConfig cfg;
    cfg.frac_bits = 6;
    cfg.word_bits = 20;
    cfg.uniform_bits = 17;
    cfg.threshold_index = 800;
    cfg.thresholding = true;
    cfg.budget_enabled = false;
    return cfg;
}

/** Drive the boot + configure sequence shared by most tests. */
void
bootAndConfigure(DpBox &box, double lo = 0.0, double hi = 10.0,
                 int n_m = 1)
{
    box.step(DpBoxCommand::StartNoising); // seal init
    EXPECT_EQ(box.phase(), DpBoxPhase::Waiting);
    box.step(DpBoxCommand::SetEpsilon, n_m);
    box.step(DpBoxCommand::SetRangeLower, box.toRaw(lo));
    box.step(DpBoxCommand::SetRangeUpper, box.toRaw(hi));
}

TEST(DpBox, RejectsBadConfig)
{
    DpBoxConfig cfg = basicConfig();
    cfg.word_bits = 4;
    EXPECT_THROW(DpBox box(cfg), FatalError);

    cfg = basicConfig();
    cfg.frac_bits = 30;
    EXPECT_THROW(DpBox box(cfg), FatalError);

    cfg = basicConfig();
    cfg.uniform_bits = 2;
    EXPECT_THROW(DpBox box(cfg), FatalError);

    cfg = basicConfig();
    cfg.budget_enabled = true; // no segments
    EXPECT_THROW(DpBox box(cfg), FatalError);
}

TEST(DpBox, StartsInInitializationPhase)
{
    DpBox box(basicConfig());
    EXPECT_EQ(box.phase(), DpBoxPhase::Initialization);
    EXPECT_FALSE(box.ready());
}

TEST(DpBox, InitSealsOnStartNoising)
{
    DpBox box(basicConfig());
    box.step(DpBoxCommand::SetEpsilon, 256 * 5); // budget = 5.0
    box.step(DpBoxCommand::SetRangeUpper, 1000); // replenish period
    box.step(DpBoxCommand::StartNoising);
    EXPECT_EQ(box.phase(), DpBoxPhase::Waiting);
    EXPECT_DOUBLE_EQ(box.remainingBudget(), 5.0);
}

TEST(DpBox, RawConversionRoundTrips)
{
    DpBox box(basicConfig());
    for (double v : {0.0, 1.0, -3.5, 131.25, 200.0}) {
        EXPECT_NEAR(box.fromRaw(box.toRaw(v)), v, box.lsb() / 2.0);
    }
    EXPECT_DOUBLE_EQ(box.lsb(), 1.0 / 64.0);
}

TEST(DpBox, NoisingTakesTwoCyclesWithThresholding)
{
    DpBox box(basicConfig());
    bootAndConfigure(box);
    box.step(DpBoxCommand::SetSensorValue, box.toRaw(5.0));

    uint64_t start = box.cycles();
    box.step(DpBoxCommand::StartNoising); // cycle 1: load
    EXPECT_FALSE(box.ready());
    EXPECT_EQ(box.phase(), DpBoxPhase::Noising);
    box.step(DpBoxCommand::DoNothing);    // cycle 2: noise
    EXPECT_TRUE(box.ready());
    EXPECT_EQ(box.phase(), DpBoxPhase::Waiting);
    EXPECT_EQ(box.cycles() - start, 2u);
}

TEST(DpBox, ThresholdingOutputInWindow)
{
    DpBoxConfig cfg = basicConfig();
    cfg.threshold_index = 300;
    DpBox box(cfg);
    bootAndConfigure(box);

    double ext = 300.0 * box.lsb();
    for (int i = 0; i < 3000; ++i) {
        box.step(DpBoxCommand::SetSensorValue, box.toRaw(5.0));
        box.step(DpBoxCommand::StartNoising);
        while (!box.ready())
            box.step(DpBoxCommand::DoNothing);
        double y = box.fromRaw(box.output());
        EXPECT_GE(y, 0.0 - ext - 1e-9);
        EXPECT_LE(y, 10.0 + ext + 1e-9);
    }
}

TEST(DpBox, ResamplingAddsCycles)
{
    DpBoxConfig cfg = basicConfig();
    cfg.thresholding = false;
    cfg.threshold_index = 100; // tight: some resampling expected
    DpBox box(cfg);
    bootAndConfigure(box);

    uint64_t total_latency = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        box.step(DpBoxCommand::SetSensorValue, box.toRaw(5.0));
        uint64_t start = box.cycles();
        box.step(DpBoxCommand::StartNoising);
        while (!box.ready())
            box.step(DpBoxCommand::DoNothing);
        total_latency += box.cycles() - start;
    }
    EXPECT_GT(box.stats().resamples, 0u);
    EXPECT_EQ(total_latency,
              2 * static_cast<uint64_t>(n) + box.stats().resamples);
}

TEST(DpBox, SetThresholdTogglesMode)
{
    DpBox box(basicConfig());
    bootAndConfigure(box);
    EXPECT_TRUE(box.thresholdingMode());
    box.step(DpBoxCommand::SetThreshold);
    EXPECT_FALSE(box.thresholdingMode());
    box.step(DpBoxCommand::SetThreshold);
    EXPECT_TRUE(box.thresholdingMode());
}

TEST(DpBox, NoiseScalesWithEpsilon)
{
    // Smaller epsilon (larger n_m) must produce larger noise spread.
    // The clamp window must be wide enough not to mask the scaling.
    auto spread = [](int n_m) {
        DpBoxConfig cfg = basicConfig();
        cfg.threshold_index = 8000;
        DpBox box(cfg);
        box.step(DpBoxCommand::StartNoising);
        box.step(DpBoxCommand::SetEpsilon, n_m);
        box.step(DpBoxCommand::SetRangeLower, box.toRaw(0.0));
        box.step(DpBoxCommand::SetRangeUpper, box.toRaw(10.0));
        RunningStats stats;
        for (int i = 0; i < 20000; ++i) {
            box.step(DpBoxCommand::SetSensorValue, box.toRaw(5.0));
            box.step(DpBoxCommand::StartNoising);
            while (!box.ready())
                box.step(DpBoxCommand::DoNothing);
            stats.add(box.fromRaw(box.output()));
        }
        return stats.stddev();
    };
    EXPECT_GT(spread(1), 1.5 * spread(0)); // eps 0.5 vs eps 1
}

TEST(DpBox, NoiseMatchesLaplaceMoments)
{
    DpBoxConfig cfg = basicConfig();
    cfg.threshold_index = 4000; // wide window: nearly raw noise
    DpBox box(cfg);
    bootAndConfigure(box, 0.0, 10.0, 1); // eps = 0.5, lambda = 20

    RunningStats stats;
    for (int i = 0; i < 60000; ++i) {
        box.step(DpBoxCommand::SetSensorValue, box.toRaw(5.0));
        box.step(DpBoxCommand::StartNoising);
        while (!box.ready())
            box.step(DpBoxCommand::DoNothing);
        stats.add(box.fromRaw(box.output()) - 5.0);
    }
    double lambda = 20.0;
    EXPECT_NEAR(stats.mean(), 0.0, 0.6);
    // Clamping at the window trims the variance slightly below the
    // ideal 2 lambda^2.
    EXPECT_NEAR(stats.variance(), 2.0 * lambda * lambda,
                0.15 * 2.0 * lambda * lambda);
}

TEST(DpBox, BudgetChargesAndExhausts)
{
    DpBoxConfig cfg = basicConfig();
    cfg.threshold_index = 300;
    cfg.budget_enabled = true;
    cfg.segments = {
        BudgetSegment{0, 0.55},
        BudgetSegment{150, 0.75},
        BudgetSegment{300, 1.0},
    };
    DpBox box(cfg);
    box.step(DpBoxCommand::SetEpsilon, 256 * 3); // budget = 3.0
    box.step(DpBoxCommand::StartNoising);
    box.step(DpBoxCommand::SetEpsilon, 1);
    box.step(DpBoxCommand::SetRangeLower, box.toRaw(0.0));
    box.step(DpBoxCommand::SetRangeUpper, box.toRaw(10.0));

    double budget_before = box.remainingBudget();
    std::vector<double> outputs;
    for (int i = 0; i < 30; ++i) {
        box.step(DpBoxCommand::SetSensorValue, box.toRaw(5.0));
        box.step(DpBoxCommand::StartNoising);
        while (!box.ready())
            box.step(DpBoxCommand::DoNothing);
        outputs.push_back(box.fromRaw(box.output()));
    }
    EXPECT_LT(box.remainingBudget(), budget_before);
    EXPECT_GT(box.stats().cache_hits, 0u);
    // After exhaustion, outputs repeat (cache replay).
    size_t n = outputs.size();
    EXPECT_DOUBLE_EQ(outputs[n - 1], outputs[n - 2]);
}

TEST(DpBox, BudgetReplenishes)
{
    DpBoxConfig cfg = basicConfig();
    cfg.threshold_index = 300;
    cfg.budget_enabled = true;
    cfg.segments = {BudgetSegment{0, 0.55},
                    BudgetSegment{300, 1.0}};
    DpBox box(cfg);
    box.step(DpBoxCommand::SetEpsilon, 256 * 1); // budget = 1.0
    box.step(DpBoxCommand::SetRangeUpper, 500);  // replenish @ 500
    box.step(DpBoxCommand::StartNoising);
    box.step(DpBoxCommand::SetEpsilon, 1);
    box.step(DpBoxCommand::SetRangeLower, box.toRaw(0.0));
    box.step(DpBoxCommand::SetRangeUpper, box.toRaw(10.0));

    // Exhaust the budget.
    for (int i = 0; i < 10; ++i) {
        box.step(DpBoxCommand::SetSensorValue, box.toRaw(5.0));
        box.step(DpBoxCommand::StartNoising);
        while (!box.ready())
            box.step(DpBoxCommand::DoNothing);
    }
    EXPECT_GT(box.stats().cache_hits, 0u);

    // Idle past the replenishment period.
    for (int i = 0; i < 600; ++i)
        box.step(DpBoxCommand::DoNothing);
    EXPECT_DOUBLE_EQ(box.remainingBudget(), 1.0);
}

TEST(DpBox, BudgetSegmentsMustMatchThreshold)
{
    DpBoxConfig cfg = basicConfig();
    cfg.budget_enabled = true;
    cfg.threshold_index = 300;
    cfg.segments = {BudgetSegment{0, 0.5}, BudgetSegment{200, 1.0}};
    EXPECT_THROW(DpBox box(cfg), FatalError);
}

TEST(DpBox, StartNoisingWithoutRangeFatals)
{
    DpBox box(basicConfig());
    box.step(DpBoxCommand::StartNoising); // seal init
    box.step(DpBoxCommand::SetEpsilon, 1);
    EXPECT_THROW(box.step(DpBoxCommand::StartNoising), FatalError);
}

TEST(DpBox, CommandsIgnoredWhileNoising)
{
    DpBoxConfig cfg = basicConfig();
    DpBox box(cfg);
    bootAndConfigure(box);
    box.step(DpBoxCommand::SetSensorValue, box.toRaw(5.0));
    box.step(DpBoxCommand::StartNoising);
    // This SetEpsilon lands during the noising cycle: ignored.
    box.step(DpBoxCommand::SetEpsilon, 7);
    EXPECT_EQ(box.nm(), 1);
    EXPECT_TRUE(box.ready());
}

TEST(DpBox, StatsCountersTrackRequests)
{
    DpBox box(basicConfig());
    bootAndConfigure(box);
    for (int i = 0; i < 5; ++i) {
        box.step(DpBoxCommand::SetSensorValue, box.toRaw(2.0));
        box.step(DpBoxCommand::StartNoising);
        while (!box.ready())
            box.step(DpBoxCommand::DoNothing);
    }
    EXPECT_EQ(box.stats().noising_requests, 5u);
    EXPECT_GT(box.cycles(), 10u);
}

TEST(DpBox, GoldenStreamThresholdingAndResampling)
{
    // Pins the device's output bits end to end: URNG, health monitor,
    // CORDIC logarithm, s_f scaling, range control and budget logic.
    // A datapath change that moves one output LSB, one resample or
    // one budget halt changes these constants; accuracy tests alone
    // would not notice.
    struct Golden
    {
        RangeControl kind;
        uint64_t hash;
        uint64_t resamples;
        uint64_t cache_hits;
        uint64_t cycles;
    };
    const Golden golden[] = {
        {RangeControl::Thresholding, 0x19a2147c96ad359bULL, 0, 39027,
         300006},
        {RangeControl::Resampling, 0x68d811ad6ba6a488ULL, 320, 38992,
         300326},
    };
    for (const Golden &g : golden) {
        PrivacyIntent intent;
        intent.range = SensorRange(0.0, 10.0);
        intent.epsilon = 0.5;
        intent.loss_multiple = 2.0;
        intent.kind = g.kind;
        intent.budget = 40.0;
        intent.replenish_period = 300;
        ProvisioningPlan plan = Provisioner::plan(intent);
        plan.device.seed = 0x5eed;
        ASSERT_TRUE(plan.device.harden_faults);
        ASSERT_TRUE(plan.device.budget_enabled);

        DpBoxDriver driver(plan.device);
        driver.initialize(intent.budget, intent.replenish_period);
        driver.configure(plan.effective_epsilon, plan.range);
        const DpBox &box = driver.device();

        // FNV-1a over the raw output words, little-endian bytes.
        uint64_t hash = 0xcbf29ce484222325ULL;
        for (int i = 0; i < 100000; ++i) {
            // Readings sweep the range and a little beyond it.
            driver.noise(-1.0 + 12.0 * (i % 97) / 96.0);
            uint64_t word = static_cast<uint64_t>(box.output());
            for (int byte = 0; byte < 8; ++byte) {
                hash ^= (word >> (8 * byte)) & 0xffu;
                hash *= 0x100000001b3ULL;
            }
        }
        const char *mode = g.kind == RangeControl::Thresholding
                               ? "thresholding" : "resampling";
        EXPECT_FALSE(box.faultLatched()) << mode;
        EXPECT_EQ(hash, g.hash) << mode;
        EXPECT_EQ(box.stats().resamples, g.resamples) << mode;
        EXPECT_EQ(box.stats().cache_hits, g.cache_hits) << mode;
        EXPECT_EQ(box.stats().cycles, g.cycles) << mode;
    }
}

} // anonymous namespace
} // namespace ulpdp
