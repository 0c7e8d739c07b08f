/**
 * @file
 * Cross-module integration tests for the extension features:
 * provisioning driving a traced device, deconvolution on generic-
 * distribution mechanisms, and categorical + numeric streams sharing
 * one budget pool.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/kary_randomized_response.h"
#include "core/output_model.h"
#include "core/privacy_loss.h"
#include "core/shared_budget.h"
#include "dpbox/driver.h"
#include "dpbox/provisioning.h"
#include "dpbox/trace.h"
#include "query/histogram_query.h"
#include "rng/fxp_inversion.h"
#include "sim/sensor_adc.h"

namespace ulpdp {
namespace {

TEST(IntegrationExt, ProvisionedDevicePassesTraceAudit)
{
    // Intent -> plan -> device -> traced session -> invariant audit:
    // the full provisioning chain holds up under inspection.
    PrivacyIntent intent;
    intent.range = SensorRange(0.0, 10.0);
    intent.epsilon = 0.5;
    intent.loss_multiple = 2.0;
    intent.kind = RangeControl::Thresholding;
    intent.budget = 15.0;
    ProvisioningPlan plan = Provisioner::plan(intent);
    ASSERT_TRUE(Provisioner::verify(plan));

    DpBox box(plan.device);
    DpBoxTracer tracer(box);
    tracer.step(DpBoxCommand::SetEpsilon,
                static_cast<int64_t>(intent.budget * 256));
    tracer.step(DpBoxCommand::StartNoising);
    tracer.step(DpBoxCommand::SetEpsilon, plan.n_m);
    tracer.step(DpBoxCommand::SetRangeLower, box.toRaw(0.0));
    tracer.step(DpBoxCommand::SetRangeUpper, box.toRaw(10.0));

    for (int i = 0; i < 100; ++i) {
        tracer.step(DpBoxCommand::SetSensorValue,
                    box.toRaw(3.0 + (i % 5)));
        tracer.step(DpBoxCommand::StartNoising);
        while (!box.ready())
            tracer.step(DpBoxCommand::DoNothing);
    }
    TraceCheckResult audit = tracer.check();
    EXPECT_TRUE(audit.ok) << audit.violation;
    EXPECT_GT(box.stats().cache_hits, 0u); // budget eventually binds
}

TEST(IntegrationExt, GaussianMechanismDeconvolvesToo)
{
    // The histogram estimator is distribution-agnostic: feed it the
    // exact model of a *Gaussian* fixed-point mechanism and recover
    // a point mass.
    FxpInversionConfig cfg;
    cfg.uniform_bits = 14;
    cfg.output_bits = 12;
    cfg.delta = 10.0 / 32.0;
    auto icdf = std::make_shared<GaussianMagnitude>(3.0);

    // Thresholding over the [0, 10] sensor range: 32 input steps of
    // Delta, window extended by t steps on each side.
    int64_t t = 40;
    FxpInversionRng rng(cfg, icdf, 7);
    auto pmf = std::make_shared<EnumeratedNoisePmf>(cfg, icdf);
    ThresholdingOutputModel model(pmf, 32, t);
    HistogramEstimator est(model, 300);

    const int64_t x = std::llround(7.5 / rng.quantizer().delta());
    std::vector<int64_t> reports;
    for (int i = 0; i < 40000; ++i)
        reports.push_back(
            std::clamp<int64_t>(x + rng.sampleIndex(), -t, 32 + t));
    auto pi = est.estimate(reports);
    double near = 0.0;
    for (int64_t i = 21; i <= 27; ++i) // true index 24
        near += pi[static_cast<size_t>(i)];
    EXPECT_GT(near, 0.8);
}

TEST(IntegrationExt, MixedStreamsOnOnePool)
{
    // A numeric sensor (thresholding) and a categorical one (k-ary
    // RR) metered against the same pool: the combined spend is
    // bounded and both degrade gracefully.
    SharedBudgetPool pool(8.0);

    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    ThresholdCalculator calc(p);
    BudgetedSensor numeric(
        "numeric", p, RangeControl::Thresholding,
        LossSegments::compute(calc, RangeControl::Thresholding,
                              {1.5, 2.0}),
        pool);

    KaryRandomizedResponse categorical(4, 1.0, 20, 3);
    double rr_loss = categorical.exactLoss();

    double charged = 0.0;
    int rr_answers = 0;
    for (int i = 0; i < 60; ++i) {
        charged += numeric.request(5.0).charged;
        if (pool.tryCharge(rr_loss)) {
            categorical.respond(i % 4);
            charged += rr_loss;
            ++rr_answers;
        }
    }
    EXPECT_LE(charged, 8.0 + 1e-9);
    EXPECT_NEAR(charged, pool.totalCharged(), 1e-9);
    EXPECT_GT(rr_answers, 0);
    EXPECT_GT(numeric.cacheHits(), 0u);
}

TEST(IntegrationExt, AdcFrontEndIntoProvisionedDevice)
{
    // Physical value -> ADC -> provisioned DP-Box -> bounded output,
    // with the LDP guarantee proven for the released grid.
    PrivacyIntent intent;
    intent.range = SensorRange(30.0, 42.0);
    intent.epsilon = 0.5;
    intent.loss_multiple = 2.0;
    intent.kind = RangeControl::Resampling;
    ProvisioningPlan plan = Provisioner::plan(intent);

    SensorAdc adc(intent.range, 12);
    DpBoxDriver drv(plan.device);
    drv.initialize(1e9, 0);
    drv.configure(plan.effective_epsilon, plan.range);

    double lsb = std::ldexp(1.0, -plan.device.frac_bits);
    double ext = static_cast<double>(plan.device.threshold_index) *
                 lsb;
    for (int i = 0; i < 500; ++i) {
        double physical = 36.0 + 0.01 * (i % 100);
        double y = drv.noise(adc.sample(physical)).value;
        EXPECT_GE(y, 30.0 - ext - 1e-9);
        EXPECT_LE(y, 42.0 + ext + 1e-9);
    }
}

TEST(IntegrationExt, StaircaseBeatsLaplaceUtilityAtHighEps)
{
    // The staircase mechanism's raison d'etre: at larger eps its
    // expected noise magnitude undercuts Laplace at equal privacy.
    double eps = 4.0;
    double d = 10.0;
    FxpInversionConfig cfg;
    cfg.uniform_bits = 14;
    cfg.output_bits = 12;
    cfg.delta = d / 64.0;

    auto expected_mag = [&](std::shared_ptr<const MagnitudeIcdf> m) {
        EnumeratedNoisePmf pmf(cfg, std::move(m));
        double e = 0.0;
        for (int64_t k = 1; k <= pmf.maxIndex(); ++k)
            e += 2.0 * pmf.pmf(k) * static_cast<double>(k) *
                 cfg.delta;
        return e;
    };
    double lap = expected_mag(
        std::make_shared<LaplaceMagnitude>(d / eps));
    double stair = expected_mag(std::make_shared<StaircaseMagnitude>(
        d, eps, StaircaseMagnitude::optimalGamma(eps)));
    EXPECT_LT(stair, lap);
}

} // anonymous namespace
} // namespace ulpdp
