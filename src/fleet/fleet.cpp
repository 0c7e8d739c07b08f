#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>
#include <span>

#include "common/logging.h"
#include "common/worker_pool.h"
#include "core/budget.h"
#include "core/budget_ledger.h"
#include "core/mechanism_registry.h"
#include "core/privacy_loss.h"
#include "core/threshold_calc.h"
#include "fleet/grid_tally.h"
#include "rng/batch_sampler.h"
#include "rng/fxp_laplace.h"
#include "rng/ideal_laplace.h"
#include "rng/laplace_table.h"
#include "rng/tausworthe.h"
#include "telemetry/telemetry.h"

namespace ulpdp {

namespace {

// Checksum mix keys for the node and trial dimensions.
constexpr uint64_t kNodeKey = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kTrialKey = 0xc2b2ae3d27d4eb4fULL;

// Salt selecting the synthetic-data substream of a node seed.
constexpr uint64_t kDataSalt = 0x64617461ULL; // "data"

// Bins of every cohort's released-value histogram.
constexpr size_t kHistogramBins = 64;

uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** Digest one released report, order-independently (summed). */
uint64_t
reportDigest(uint64_t node, uint32_t trial, double released)
{
    return FleetSeeder::mix64((node + 1) * kNodeKey ^
                              (static_cast<uint64_t>(trial) + 1) *
                                  kTrialKey ^
                              doubleBits(released));
}

/** Uniform double in (0, 1] from one 64-bit word. */
double
unitFromWord(uint64_t w)
{
    return (static_cast<double>(w >> 11) + 1.0) * 0x1p-53;
}

/** Fold a byte range into a running digest (merge-order fixed by the
 *  caller, so a plain chained hash is fine here). */
uint64_t
foldBytes(uint64_t acc, const void *data, size_t len)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < len; ++i)
        acc = FleetSeeder::mix64(acc ^ (p[i] + 0xffULL * i));
    return acc;
}

uint64_t
foldStats(uint64_t acc, const RunningStats &s)
{
    uint64_t w[5] = {s.count(), doubleBits(s.mean()),
                     doubleBits(s.variance()), doubleBits(s.min()),
                     doubleBits(s.max())};
    return foldBytes(acc, w, sizeof w);
}

/**
 * Publish one merged cohort's counters into the process registry.
 *
 * Runs on the main thread *after* the block-order merge: the block
 * slabs (BlockAccum) already are the per-shard metric slabs, so
 * publishing their merged totals here keeps the hot path free of any
 * shared-cacheline traffic and cannot perturb the bit-identical
 * FleetReport the determinism contract promises.
 */
void
publishCohort(const CohortResult &res)
{
    MetricRegistry &reg = telemetry::registry();
    std::string labels = "cohort=\"" + res.name + "\"";
    const struct
    {
        const char *name, *help, *unit;
        uint64_t value;
    } counters[] = {
        {"ulpdp_fleet_reports_total",
         "Reports released across the fleet by cohort", "reports",
         res.reports},
        {"ulpdp_fleet_fresh_reports_total",
         "Fresh (budget-charged) reports by cohort", "reports",
         res.fresh_reports},
        {"ulpdp_fleet_cache_replays_total",
         "Budget-exhausted cache replays by cohort", "reports",
         res.cache_replays},
        {"ulpdp_fleet_samples_drawn_total",
         "Laplace samples drawn by cohort", "samples", res.samples_drawn},
        {"ulpdp_fleet_resample_overflows_total",
         "Resampling draws degraded to a window clamp", "draws",
         res.resample_overflows},
        {"ulpdp_fleet_nodes_exhausted_total",
         "Node-epochs whose budget ran out mid-epoch", "nodes",
         res.nodes_exhausted},
        {"ulpdp_fleet_rng_integrity_detections_total",
         "Sampler-table integrity faults detected", "faults",
         res.rng_integrity_detections},
    };
    for (const auto &c : counters)
        reg.counter(c.name, c.help, c.unit, labels).inc(c.value);
    if (res.agg) {
        reg.counter("ulpdp_agg_ingested_reports_total",
                    "Reports folded into the streaming sketches",
                    "reports", labels)
            .inc(res.agg->sketch.total());
        reg.counter("ulpdp_agg_dropped_reports_total",
                    "Reports outside the sketch window (should be 0)",
                    "reports", labels)
            .inc(res.agg->dropped);
        reg.gauge("ulpdp_agg_sketch_bytes",
                  "Merged sketch counter footprint",
                  "bytes", labels)
            .set(static_cast<double>(res.agg->sketch.bytes()));
        reg.gauge("ulpdp_agg_heavy_hitters",
                  "Heavy-hitter slots reported by the last epoch",
                  "slots", labels)
            .set(static_cast<double>(res.agg->heavy.size()));
        reg.gauge("ulpdp_agg_boundary_mass",
                  "Observed report fraction on the window-edge slots",
                  "fraction", labels)
            .set(res.agg->decoded.boundary_mass_observed);
        reg.histogram("ulpdp_agg_decode_seconds",
                      "Post-merge channel-inversion decode latency",
                      "seconds",
                      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0},
                      labels)
            .observe(res.agg->decode_seconds);
    }
}

/** Publish the run-level metrics of one merged epoch. The batch-layer
 *  gauges and counters never feed the FleetReport: the determinism
 *  contract is about the merged result, not which path produced it. */
void
publishFleet(const FleetReport &report, uint64_t batch_fallbacks,
             uint64_t rng_clones)
{
    MetricRegistry &reg = telemetry::registry();
    reg.counter("ulpdp_fleet_runs_total", "Fleet epochs executed", "runs")
        .inc();
    reg.gauge("ulpdp_fleet_reports_per_second",
              "Throughput of the most recent fleet epoch", "reports/s")
        .set(report.reportsPerSecond());
    reg.gauge("ulpdp_fleet_threads",
              "Worker threads of the most recent fleet epoch", "threads")
        .set(static_cast<double>(report.threads));
    reg.histogram("ulpdp_fleet_epoch_seconds",
                  "Wall-clock duration per fleet epoch", "seconds",
                  {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0})
        .observe(report.seconds);
    reg.gauge("ulpdp_batch_lanes",
              "URNG lanes stepped in lockstep by the batch sampling bank",
              "lanes")
        .set(static_cast<double>(TausBank::kMaxLanes));
    reg.gauge("ulpdp_batch_prefetch_batch_size",
              "Table slots prefetched ahead per batched trial row",
              "slots")
        .set(static_cast<double>(TausBank::kMaxLanes));
    reg.counter("ulpdp_batch_scalar_fallbacks_total",
                "Blocks redone on the scalar path after a batch-sampler "
                "bail", "blocks")
        .inc(batch_fallbacks);
    reg.counter("ulpdp_fleet_rng_clones_total",
                "Prototype RNG clones made by fleet workers", "clones")
        .inc(rng_clones);
}

} // anonymous namespace

namespace fleet_detail {

/**
 * Everything the executors need about one cohort, resolved once on
 * the main thread: grid indices, window, affordable report count, the
 * prototype RNG whose table every worker shares read-only, the exact
 * loss verdict and the cohort's span of the block list. It borrows
 * its CohortConfig and holds nothing per node.
 */
struct CohortPlan
{
    /**
     * The cohort's mechanism, resolved through the registry before
     * any member that depends on the resolved parameter block (the
     * prototype RNG is member-initialized from it, so bounded-Laplace
     * scale corrections and discrete-Laplace rounding modes are in
     * effect from the first enumeration).
     */
    struct Mech
    {
        /** Resolved parameters (lambda_scale / rounding applied). */
        FxpMechanismParams params;

        /** Window half-extension T in Delta units. */
        int64_t threshold = 0;

        /** Hot-loop execution shape (MechanismLowering). */
        bool truncated = false;
        bool clamp = false;

        /** Uncertified yardsticks outside the registry. */
        bool ideal = false;
        bool naive = false;
    };

    static Mech resolveMechanism(const CohortConfig &c);

    CohortPlan(const CohortConfig &c, uint32_t cohort_index);

    /**
     * The exact conditional output model of the cohort's mechanism
     * (never called for Ideal): the naive pipeline's, or the
     * registered factory's. Passing the already-resolved threshold
     * back through the spec skips a second exact-index search.
     */
    std::unique_ptr<DiscreteOutputModel>
    outputModel() const
    {
        if (mech.naive) {
            ThresholdCalculator calc(cfg.params);
            return std::make_unique<NaiveOutputModel>(calc.pmf(),
                                                      calc.span());
        }
        MechanismSpec spec;
        spec.params = cfg.params;
        spec.loss_multiple = cfg.loss_multiple;
        spec.threshold_index = mech.threshold;
        return MechanismRegistry::instance()
            .at(cfg.mechanism_name).model(spec);
    }

    void analyzeLoss();
    void planWindow();

    /** Borrowed from FleetRunner::config_ (outlives the plan). */
    const CohortConfig &cfg;
    uint32_t index;
    /** Registry-resolved mechanism (declared before `proto`: the
     *  prototype RNG is built from the resolved parameter block). */
    Mech mech;
    FxpLaplaceRng proto;
    /** Shared sampling-table handle (nullptr when no fast path). */
    std::shared_ptr<const LaplaceSampleTable> table;
    /** Whether blocks ride the 16-lane batch path. */
    bool batch_ok = false;
    uint64_t nodes = 0;
    double delta = 1.0;
    int64_t lo_index = 0;
    int64_t hi_index = 0;
    int64_t win_lo = 0;
    int64_t win_hi = 0;
    double mid_value = 0.0;
    double lambda = 1.0;
    /** Synthetic-data shape. */
    double data_mean = 0.0;
    double data_std = 1.0;
    double hist_lo = 0.0;
    double hist_hi = 1.0;
    uint32_t fresh_per_node = 0;
    /** Worst-case loss one fresh report is metered at (epoch-ledger
     *  journaling uses the same bound: never undercharges). */
    double per_report_charge = 0.0;
    double worst_loss = 0.0;
    bool ldp = false;

    /** Streaming aggregation (resolved from cfg.agg; off for Ideal). */
    bool agg_on = false;
    /** Shared precomputed channel pseudo-inverse. */
    std::shared_ptr<const agg::FrequencyDecoder> decoder;

    /** Exact accumulation window: absolute output index of slot 0
     *  and slot count (0 for Ideal cohorts, which have no grid). With
     *  agg on this is also the sketch window. */
    int64_t slot_lo = 0;
    size_t slot_span = 0;
    /** Grid slot nearest the range midpoint, the report a node
     *  without any fresh report replays. */
    int64_t mid_slot = 0;

    /** The cohort's span of the runner's block list, node order. */
    uint64_t first_block = 0;
    uint64_t num_blocks = 0;
};

CohortPlan::CohortPlan(const CohortConfig &c, uint32_t cohort_index)
    : cfg(c), index(cohort_index), mech(resolveMechanism(c)),
      proto(mech.params.rngConfig(), /*seed=*/1)
{
    const char *name = cfg.name.c_str();
    nodes = cfg.values.empty()
        ? cfg.nodes
        : static_cast<uint64_t>(cfg.values.size());
    if (nodes == 0)
        fatal("FleetRunner: cohort '%s' has no nodes (set nodes "
              "or provide values)", name);
    if (cfg.reports_per_node == 0)
        fatal("FleetRunner: cohort '%s': reports_per_node must "
              "be positive", name);
    // Fail secure: a negative or NaN budget would fail the metering
    // test below and run unmetered; a non-finite reading has no index.
    if (!(std::isfinite(cfg.budget_per_node) &&
          cfg.budget_per_node >= 0.0))
        fatal("FleetRunner: cohort '%s': budget_per_node must be "
              "finite and >= 0 (0 disables metering), got %g", name,
              cfg.budget_per_node);
    if (cfg.data_mean && !std::isfinite(*cfg.data_mean))
        fatal("FleetRunner: cohort '%s': data_mean must be finite",
              name);
    auto bad = std::find_if_not(cfg.values.begin(), cfg.values.end(),
                                [](double v) { return std::isfinite(v); });
    if (bad != cfg.values.end())
        fatal("FleetRunner: cohort '%s': values[%zu] is not finite "
              "(%g)", name,
              static_cast<size_t>(bad - cfg.values.begin()), *bad);

    delta = proto.quantizer().delta();
    const SensorRange &range = cfg.params.range;
    lo_index = static_cast<int64_t>(std::llround(range.lo / delta));
    hi_index = static_cast<int64_t>(std::llround(range.hi / delta));
    mid_value = 0.5 * (range.lo + range.hi);
    mid_slot = static_cast<int64_t>(std::llround(mid_value / delta));
    lambda = mech.params.lambda();
    win_lo = lo_index - mech.threshold;
    win_hi = hi_index + mech.threshold;
    data_mean = cfg.data_mean.value_or(mid_value);
    data_std = range.length() / 6.0;

    // Every registered mechanism guarantees the loss_multiple * eps
    // per-query bound (that is what certification enforces); only the
    // uncontrolled yardsticks charge plain eps. The flat worst-case
    // charge never undercharges, and the affordable count needs no
    // randomness to evaluate.
    const bool controlled = !mech.ideal && !mech.naive;
    per_report_charge = controlled
        ? cfg.loss_multiple * cfg.params.epsilon
        : cfg.params.epsilon;
    fresh_per_node = cfg.reports_per_node;
    if (cfg.budget_per_node > 0.0) {
        uint32_t f = 0;
        double remaining = cfg.budget_per_node;
        while (f < cfg.reports_per_node &&
               budgetCovers(remaining, per_report_charge)) {
            remaining -= per_report_charge;
            ++f;
        }
        fresh_per_node = f;
    }

    // Released-value histogram: the exact window for controlled
    // mechanisms, a generous +-2 lambda apron otherwise (the
    // under/overflow buckets catch the rest).
    double ext = controlled
        ? static_cast<double>(mech.threshold) * delta
        : 2.0 * lambda;
    hist_lo = range.lo - ext;
    hist_hi = range.hi + ext;

    // Enumerate the sampling table once, before any worker copies the
    // prototype: every copy then shares it read-only. The shared
    // handle also feeds the batch sampling layer, so the whole fleet
    // references one enumeration.
    if (!mech.ideal)
        table = proto.sharedTable();
    batch_ok = table != nullptr && fresh_per_node > 0;

    analyzeLoss();
    planWindow();
}

/** The exact whole-support loss verdict (analyze_loss cohorts). */
void
CohortPlan::analyzeLoss()
{
    worst_loss = cfg.params.epsilon;
    ldp = true;
    if (cfg.analyze_loss && !mech.ideal) {
        LossReport rep = PrivacyLossAnalyzer::analyze(*outputModel());
        worst_loss = rep.bounded
            ? rep.worst_case_loss
            : std::numeric_limits<double>::infinity();
        double bound = cfg.loss_multiple * cfg.params.epsilon + 1e-9;
        ldp = rep.bounded && rep.worst_case_loss <= bound;
    } else if (mech.naive) {
        worst_loss = std::numeric_limits<double>::infinity();
        ldp = false;
    }
}

/**
 * The exact accumulation window, every output index a report can
 * take: with agg on, the support of the exact output model (whose
 * decoder is precomputed here, once); else the threshold window, or
 * for naive the pipeline's largest magnitude (URNG index 1; the
 * pipeline is monotone) either side of the range.
 */
void
CohortPlan::planWindow()
{
    if (mech.ideal) {
        if (cfg.agg.enabled)
            warn("FleetRunner: cohort '%s': streaming aggregation "
                 "has no output grid under the 'ideal' mechanism; "
                 "disabled", cfg.name.c_str());
        return;
    }
    if (cfg.agg.enabled) {
        std::unique_ptr<DiscreteOutputModel> model = outputModel();
        decoder = std::make_shared<agg::FrequencyDecoder>(*model);
        slot_lo = lo_index + model->outputLo();
        slot_span = decoder->numOutputs();
        agg_on = true;
    } else if (!mech.naive) {
        slot_lo = win_lo;
        slot_span = static_cast<size_t>(win_hi - win_lo + 1);
    } else {
        int64_t reach = proto.pipeline(1, 1);
        slot_lo = lo_index - reach;
        slot_span =
            static_cast<size_t>(hi_index - lo_index + 2 * reach + 1);
    }
}

CohortPlan::Mech
CohortPlan::resolveMechanism(const CohortConfig &c)
{
    if (!(c.params.epsilon > 0.0))
        fatal("FleetRunner: cohort '%s': epsilon must be "
              "positive, got %g", c.name.c_str(),
              c.params.epsilon);

    Mech m;
    m.params = c.params;

    // The paper's two uncertified yardsticks resolve before the
    // registry lookup: they are never registered, so registration
    // keeps implying certifiability.
    const std::string &name = c.mechanism_name;
    if (name == "ideal" || name == "naive") {
        m.ideal = name == "ideal";
        m.naive = name == "naive";
        return m;
    }

    const MechanismRegistry::Entry *entry =
        MechanismRegistry::instance().find(name);
    if (entry == nullptr) {
        std::string known;
        for (const std::string &k :
                 MechanismRegistry::instance().names()) {
            if (!known.empty())
                known += ", ";
            known += k;
        }
        fatal("FleetRunner: cohort '%s': unknown mechanism '%s' "
              "(registered: %s; uncertified yardsticks: ideal, "
              "naive)", c.name.c_str(), name.c_str(), known.c_str());
    }
    if (!entry->lower)
        fatal("FleetRunner: cohort '%s': mechanism '%s' has no "
              "fleet lowering (it cannot run on the batch hot "
              "loop); pick one advertising the batch capability",
              c.name.c_str(), name.c_str());

    MechanismSpec spec;
    spec.params = c.params;
    spec.loss_multiple = c.loss_multiple;
    MechanismLowering low = entry->lower(spec);
    m.params = low.params;
    m.threshold = low.threshold_index;
    m.truncated = low.truncated;
    m.clamp = low.clamp;
    return m;
}

/**
 * Per-block counters and per-node terms: fixed size, no heap. One
 * thread writes a block's slab; the fold merges slabs in block-index
 * order, which fixes the rounding of the few floating-point fields
 * (the true-reading Welford and the quantization-residual sums).
 * Per-report integer state lives in the worker's GridTally instead.
 *
 * Grid cohorts keep, per node n with true reading x_n, clamped input
 * index xi_n, report index sum S_n over its R reports and residual
 * r_n = xi_n * Delta - x_n, the terms the fold turns into the exact
 * error moments (each report's error is (y - xi_n) * Delta + r_n):
 *   noise       = sum_n (S_n - R xi_n)       = sum (y - xi)
 *   cross       = sum_n xi_n (R xi_n - 2 S_n) = sum (y - xi)^2 - sum y^2
 *   resid       = sum_n r_n
 *   resid_noise = sum_n r_n (S_n - R xi_n)
 *   resid_sq    = sum_n r_n^2
 */
struct BlockAccum
{
    uint64_t samples = 0;
    uint64_t overflows = 0;
    uint64_t fresh = 0;
    uint64_t replays = 0;
    uint64_t exhausted = 0;
    uint64_t integrity = 0;
    uint64_t checksum = 0;
    RunningStats true_vals;

    __int128 noise = 0;
    __int128 cross = 0;
    double resid = 0.0;
    double resid_noise = 0.0;
    double resid_sq = 0.0;
    /** Extremes of (released - true) over the block's reports. */
    double err_lo = std::numeric_limits<double>::infinity();
    double err_hi = -std::numeric_limits<double>::infinity();

    /** Fold one grid node with true reading @p x, input index @p xi
     *  and output indices summing to @p sum over its @p R reports,
     *  extremes @p y_lo and @p y_hi. */
    void addGridNode(double x, int64_t xi, int64_t sum, int64_t y_lo,
                     int64_t y_hi, uint32_t R, double delta)
    {
        const int64_t d = sum - static_cast<int64_t>(R) * xi;
        const double r = static_cast<double>(xi) * delta - x;
        noise += d;
        cross += static_cast<__int128>(xi) *
                 (static_cast<int64_t>(R) * xi - 2 * sum);
        resid += r;
        resid_noise += r * static_cast<double>(d);
        resid_sq += r * r;
        err_lo = std::min(err_lo, static_cast<double>(y_lo) * delta - x);
        err_hi = std::max(err_hi, static_cast<double>(y_hi) * delta - x);
    }

    /** Fold another block's slab in (block-index order). */
    void merge(const BlockAccum &o)
    {
        samples += o.samples;
        overflows += o.overflows;
        fresh += o.fresh;
        replays += o.replays;
        exhausted += o.exhausted;
        integrity += o.integrity;
        checksum += o.checksum;
        true_vals.merge(o.true_vals);
        noise += o.noise;
        cross += o.cross;
        resid += o.resid;
        resid_noise += o.resid_noise;
        resid_sq += o.resid_sq;
        err_lo = std::min(err_lo, o.err_lo);
        err_hi = std::max(err_hi, o.err_hi);
    }

    /** Count the fresh and replayed reports of @p nodes nodes. */
    void addReports(uint64_t nodes, uint32_t fresh_per_node, uint32_t R)
    {
        fresh += nodes * fresh_per_node;
        replays += nodes * (R - fresh_per_node);
        if (fresh_per_node < R)
            exhausted += nodes;
    }
};

/** The Ideal yardstick's per-block slab: continuous values have no
 *  output grid, so their moments are Welford and their trial sums
 *  doubles, both merged in block-index order. */
struct IdealSlab
{
    RunningStats released;
    RunningStats error;
    Histogram hist;
    std::vector<double> trial;

    explicit IdealSlab(const CohortPlan &plan)
        : hist(plan.hist_lo, plan.hist_hi, kHistogramBins),
          trial(plan.cfg.reports_per_node, 0.0)
    {}
};

/** One claimable unit of work -- consecutive nodes of one cohort --
 *  and the slab it alone writes; aligned so adjacent blocks' slabs
 *  never share a cache line. */
struct alignas(64) Block
{
    uint32_t cohort = 0;
    uint64_t node_lo = 0;
    uint64_t node_hi = 0;
    BlockAccum acc;
    /** Ideal cohorts only. */
    std::unique_ptr<IdealSlab> ideal;

    /** Zero the slab for a new epoch. */
    void clear(const CohortPlan &plan)
    {
        acc = BlockAccum{};
        if (ideal)
            *ideal = IdealSlab(plan);
    }
};

/**
 * Worker-slot scratch that persists across blocks and epochs: the
 * steady-state hot loop allocates nothing and clones nothing. The RNG
 * clone and BatchSampler are rebuilt only on a cohort switch (or
 * after an integrity fault poisons the clone); a reused clone is
 * indistinguishable from a fresh one, since streams are reseeded per
 * node and counters read as per-block deltas. The alignment keeps one
 * worker's per-block telemetry deltas off its neighbours' lines.
 */
struct alignas(64) WorkerScratch
{
    std::vector<int64_t> noise;  // scalar path, one node's batch
    std::vector<int64_t> rect;   // batch path, trial-major noise
    std::vector<BatchSampler::Window> windows =
        std::vector<BatchSampler::Window>(TausBank::kMaxLanes);
    std::optional<FxpLaplaceRng> rng;
    uint32_t rng_cohort = 0;
    std::optional<BatchSampler> sampler;
    uint32_t sampler_cohort = 0;
    /** Per-cohort exact report tallies (holding the agg sketch when
     *  agg is on; shapeless for Ideal), heap-owned so no two workers'
     *  counters share a line. */
    std::vector<std::unique_ptr<GridTally>> tallies;
    /** Per-epoch telemetry deltas, flushed by the main thread after
     *  the merge (never a shared atomic on the hot path). */
    uint64_t clones = 0;
    uint64_t fallbacks = 0;

    /** Zero the tallies and deltas for a new epoch, building each
     *  cohort's tally (sized by its plan) on first use. */
    void beginEpoch(const std::vector<CohortPlan> &plans)
    {
        fallbacks = 0;
        clones = 0;
        tallies.resize(plans.size());
        for (size_t c = 0; c < plans.size(); ++c) {
            if (tallies[c]) {
                tallies[c]->clear();
                continue;
            }
            const CohortPlan &plan = plans[c];
            const uint32_t R = plan.cfg.reports_per_node;
            if (plan.agg_on)
                tallies[c] = std::make_unique<GridTally>(
                    agg::CohortSketch(
                        plan.cfg.agg, plan.slot_span,
                        plan.cfg.agg.per_trial ? R : 1,
                        static_cast<double>(plan.slot_lo) * plan.delta,
                        plan.delta),
                    plan.slot_lo, R);
            else if (plan.mech.ideal)
                tallies[c] = std::make_unique<GridTally>();
            else
                tallies[c] = std::make_unique<GridTally>(
                    plan.slot_lo, plan.slot_span, R);
        }
    }
};

} // namespace fleet_detail

using namespace fleet_detail;

namespace {

std::atomic<bool> g_force_scalar_blocks{false};

/** Deterministic per-node true reading (clipped Gaussian via
 *  Box-Muller on the node's data substream). */
double
synthValue(uint64_t data_seed, double mu, double sigma, double lo,
           double hi)
{
    uint64_t a = FleetSeeder::mix64(data_seed + kNodeKey);
    uint64_t b = FleetSeeder::mix64(data_seed + 2 * kNodeKey);
    double u1 = unitFromWord(a);
    double u2 = unitFromWord(b);
    double z = std::sqrt(-2.0 * std::log(u1)) *
               std::cos(2.0 * 3.14159265358979323846 * u2);
    return std::clamp(mu + sigma * z, lo, hi);
}

/** True reading of @p node (stream seed @p seed): values[node] when
 *  the cohort replays a dataset (@p values non-null), else synthetic. */
double
nodeReading(const CohortPlan &plan, const double *values, uint64_t node,
            uint64_t seed)
{
    return values != nullptr
        ? values[node]
        : synthValue(FleetSeeder::subSeed(seed, kDataSalt),
                     plan.data_mean, plan.data_std,
                     plan.cfg.params.range.lo, plan.cfg.params.range.hi);
}

/** Digest (and materialize) one released report. */
inline void
releaseReport(BlockAccum &acc, double *matrix, uint64_t nodes,
              uint64_t node, uint32_t t, double released)
{
    acc.checksum += reportDigest(node, t, released);
    if (matrix != nullptr)
        matrix[static_cast<uint64_t>(t) * nodes + node] = released;
}

/** One grid block in flight, its outputs and plan scalars resolved
 *  once per block. Both draw paths -- the 16-lane batch rect and the
 *  per-draw scalar path -- hand every node to release(). */
struct GridBlock
{
    const CohortPlan &plan;
    const FleetSeeder &seeder;
    const Block &block;
    BlockAccum &acc;
    GridTally &tally;
    double *matrix;
    const double *values =
        plan.cfg.values.empty() ? nullptr : plan.cfg.values.data();
    const uint32_t R = plan.cfg.reports_per_node;
    const uint32_t fresh = plan.fresh_per_node;
    const double delta = plan.delta;
    const double range_lo = plan.cfg.params.range.lo;
    const double range_hi = plan.cfg.params.range.hi;

    /** Input grid index of reading @p x, clamped to the range (the
     *  clamp comes first, so a huge reading cannot overflow). */
    int64_t inputIndex(double x) const
    {
        return static_cast<int64_t>(
            std::llround(std::clamp(x, range_lo, range_hi) / delta));
    }

    /**
     * Release every report of node @p node (reading @p x, input index
     * @p xi): report t < fresh is @p draw(t); past the budget the node
     * replays its last fresh report, or the midpoint slot if it has
     * none. A kMidpoint cohort (fresh == 0, scalar path only) releases
     * the off-grid range midpoint itself; the fold derives its moments
     * from the true readings.
     */
    template <bool kMidpoint, typename Draw>
    void release(uint64_t node, double x, int64_t xi, Draw &&draw)
    {
        acc.true_vals.add(x);
        int64_t yi = plan.mid_slot;
        int64_t sum = 0;
        int64_t y_lo = std::numeric_limits<int64_t>::max();
        int64_t y_hi = std::numeric_limits<int64_t>::min();
        for (uint32_t t = 0; t < R; ++t) {
            if (t < fresh)
                yi = draw(t);
            tally.add(t, yi);
            sum += yi;
            y_lo = std::min(y_lo, yi);
            y_hi = std::max(y_hi, yi);
            releaseReport(acc, matrix, plan.nodes, node, t,
                          kMidpoint ? plan.mid_value
                                    : static_cast<double>(yi) * delta);
        }
        acc.addGridNode(x, xi, sum, y_lo, y_hi, R, delta);
    }
};

/**
 * Batch path: fill the 16-lane bank with consecutive nodes and draw
 * every fresh report of the group in one rect. Lane l is bit-identical
 * to node lo + l's scalar stream. Returns false (leaving partial slab
 * and tally deltas) when a comparator tripped or a window holds no
 * URNG state.
 */
bool
batchBlock(GridBlock &g, WorkerScratch &ws)
{
    constexpr size_t W = TausBank::kMaxLanes;
    const CohortPlan &plan = g.plan;
    // Cohort-cached sampler: the only holder of the table's
    // shared_ptr, so no block claim touches its refcount line.
    if (!ws.sampler || ws.sampler_cohort != g.block.cohort) {
        ws.sampler.emplace(plan.table, plan.proto.config().uniform_bits,
                           plan.proto.quantizer().maxIndex(),
                           plan.proto.config().integrity_checks);
        ws.sampler_cohort = g.block.cohort;
    }
    BatchSampler &bs = *ws.sampler;
    // Registry-lowered execution shape: the loop never sees the
    // mechanism's name, only these two booleans.
    const bool truncated = plan.mech.truncated;
    const bool clamp = plan.mech.clamp;
    const int64_t win_lo = plan.win_lo;
    const int64_t win_hi = plan.win_hi;
    BatchSampler::Window *windows = ws.windows.data();
    ws.rect.resize(W * static_cast<size_t>(g.fresh));
    const int64_t *rect = ws.rect.data();
    uint64_t seeds[W];
    double xs[W];
    int64_t xis[W];
    for (uint64_t lo = g.block.node_lo; lo < g.block.node_hi; lo += W) {
        const size_t lanes = static_cast<size_t>(
            std::min<uint64_t>(W, g.block.node_hi - lo));
        for (size_t l = 0; l < lanes; ++l) {
            seeds[l] = g.seeder.nodeSeed(plan.index, lo + l);
            xs[l] = nodeReading(plan, g.values, lo + l, seeds[l]);
            xis[l] = g.inputIndex(xs[l]);
            if (truncated)
                windows[l] = {win_lo - xis[l], win_hi - xis[l]};
        }
        bs.seedLanes(seeds, lanes);
        const bool ok = truncated
            ? bs.sampleTruncatedRect(windows, ws.rect.data(), g.fresh)
            : bs.sampleRect(ws.rect.data(), g.fresh);
        if (!ok)
            return false;
        for (size_t l = 0; l < lanes; ++l) {
            const int64_t xi = xis[l];
            g.release<false>(lo + l, xs[l], xi, [&](uint32_t t) {
                const int64_t y =
                    xi + rect[static_cast<size_t>(t) * lanes + l];
                return clamp ? std::clamp(y, win_lo, win_hi) : y;
            });
        }
        g.acc.samples += lanes * g.fresh;
        g.acc.addReports(lanes, g.fresh, g.R);
    }
    return true;
}

/** Scalar path: fresh == 0 cohorts, tableless configurations and
 *  batch-fallback redos, one per-draw node at a time. */
void
scalarBlock(GridBlock &g, WorkerScratch &ws)
{
    const CohortPlan &plan = g.plan;
    std::optional<FxpLaplaceRng> &rng = ws.rng;
    if (!rng || ws.rng_cohort != g.block.cohort ||
        rng->integrityFault()) {
        rng.emplace(plan.proto);
        ws.rng_cohort = g.block.cohort;
        ++ws.clones;
    }
    const bool batched = plan.mech.naive || plan.mech.clamp;
    std::vector<int64_t> &noise = ws.noise;
    noise.resize(batched ? g.fresh : 0);
    const uint64_t drawn_before = rng->samplesDrawn();
    const uint64_t integ_before = rng->integrityDetections();

    for (uint64_t node = g.block.node_lo; node < g.block.node_hi;
         ++node) {
        const uint64_t seed = g.seeder.nodeSeed(plan.index, node);
        const double x = nodeReading(plan, g.values, node, seed);
        const int64_t xi = g.inputIndex(x);
        rng->urng() = Tausworthe(seed);
        if (batched && g.fresh > 0)
            rng->sampleBatch(noise.data(), g.fresh);
        auto draw = [&](uint32_t t) {
            if (batched) {
                const int64_t y = xi + noise[t];
                return plan.mech.clamp
                    ? std::clamp(y, plan.win_lo, plan.win_hi)
                    : y;
            }
            // Per-request samples out-param; the block total comes
            // from samplesDrawn() below.
            uint64_t scratch = 0;
            return drawConfinedOutput(
                *rng, RangeControl::Resampling, xi, plan.win_lo,
                plan.win_hi, uint64_t{1} << 20, scratch,
                g.acc.overflows, "FleetRunner");
        };
        if (g.fresh == 0)
            g.release<true>(node, x, xi, draw);
        else
            g.release<false>(node, x, xi, draw);
    }
    g.acc.addReports(g.block.node_hi - g.block.node_lo, g.fresh, g.R);
    g.acc.samples += rng->samplesDrawn() - drawn_before;
    g.acc.integrity += rng->integrityDetections() - integ_before;
}

/** One grid block (every mechanism but Ideal), start to finish, into
 *  its private slab and the worker's tally. */
void
gridBlock(const CohortPlan &plan, const FleetSeeder &seeder, Block &block,
          WorkerScratch &ws, double *matrix)
{
    GridTally &tally = *ws.tallies[block.cohort];
    GridBlock g{plan, seeder, block, block.acc, tally, matrix};
    tally.beginBlock();
    if (plan.batch_ok &&
        !g_force_scalar_blocks.load(std::memory_order_relaxed)) {
        if (batchBlock(g, ws)) {
            tally.endBlock();
            return;
        }
        // Discard the block's slab and tally deltas and redo it
        // scalar: every node restarts from its seed, so the redo is
        // bit-identical, with the exact per-draw integrity semantics.
        block.acc = BlockAccum{};
        tally.beginBlock();
        ++ws.fallbacks;
    }
    scalarBlock(g, ws);
    tally.endBlock();
}

/** One Ideal-yardstick block: continuous double-precision Laplace on
 *  the true reading, into the block's own slabs. */
void
idealBlock(const CohortPlan &plan, const FleetSeeder &seeder, Block &block,
           double *matrix)
{
    BlockAccum &acc = block.acc;
    IdealSlab &slab = *block.ideal;
    const double *values =
        plan.cfg.values.empty() ? nullptr : plan.cfg.values.data();
    const uint32_t R = plan.cfg.reports_per_node;
    const uint32_t fresh = plan.fresh_per_node;
    for (uint64_t node = block.node_lo; node < block.node_hi; ++node) {
        const uint64_t seed = seeder.nodeSeed(plan.index, node);
        const double x = nodeReading(plan, values, node, seed);
        acc.true_vals.add(x);
        IdealLaplace ideal(plan.lambda, seed);
        // Budget exhausted: replay the cached report, or the range
        // midpoint when nothing was ever released.
        double released = plan.mid_value;
        for (uint32_t t = 0; t < R; ++t) {
            if (t < fresh)
                released = x + ideal.sample();
            slab.hist.add(released);
            slab.released.add(released);
            slab.error.add(released - x);
            slab.trial[t] += released;
            releaseReport(acc, matrix, plan.nodes, node, t, released);
        }
    }
    const uint64_t nodes = block.node_hi - block.node_lo;
    acc.samples += nodes * fresh;
    acc.addReports(nodes, fresh, R);
}

/**
 * Released and error moments, histogram and trial estimates of a grid
 * cohort whose every report is an output index y on the Delta grid:
 * from the merged exact tally and the block-merged per-node terms. All
 * integer sums are exact; each moment is rounded once, from extended
 * precision. Expects true_stats and nodes already set.
 */
void
foldGrid(CohortResult &res, const GridTally &tally,
         const BlockAccum &tot, uint32_t R, double delta)
{
    const uint64_t n = res.nodes * R;
    const std::vector<uint64_t> slots = tally.slotTotals();
    const std::vector<int64_t> &trial_sums = tally.trialSums();
    __int128 sum = 0;
    __int128 sum_sq = 0;
    uint64_t seen = 0;
    int64_t y_lo = 0;
    int64_t y_hi = 0;
    for (size_t s = 0; s < slots.size(); ++s) {
        const uint64_t c = slots[s];
        if (c == 0)
            continue;
        const int64_t y = tally.slotLo() + static_cast<int64_t>(s);
        if (seen == 0)
            y_lo = y;
        y_hi = y;
        seen += c;
        res.released_hist.add(static_cast<double>(y) * delta, c);
        sum += static_cast<__int128>(c) * y;
        sum_sq += static_cast<__int128>(c) * y * y;
    }
    ULPDP_ASSERT(seen == n);
    res.released_stats =
        RunningStats::fromGridSums(n, sum, sum_sq, delta, y_lo, y_hi);

    const long double h = delta;
    const long double nodes = static_cast<long double>(res.nodes);
    res.trial_estimate.resize(R);
    for (uint32_t t = 0; t < R; ++t)
        res.trial_estimate[t] = static_cast<double>(
            h * static_cast<long double>(trial_sums[t]) / nodes);

    // Each error is (y - xi) * Delta + r: an exact integer part plus
    // the node's quantization residual. With A = sum (y - xi),
    // B = R sum r, C = sum r (S - R xi) and E = R sum r^2, the
    // centered second moment is
    //   Delta^2 (Q - A^2/n) + 2 Delta (C - A B/n) + (E - B^2/n),
    // where Q = sum (y - xi)^2 and the first bracket is exact.
    const long double cnt = static_cast<long double>(n);
    const long double a = static_cast<long double>(tot.noise);
    const long double b = R * static_cast<long double>(tot.resid);
    const long double c = tot.resid_noise;
    const long double e = R * static_cast<long double>(tot.resid_sq);
    const long double mean = (h * a + b) / cnt;
    long double m2 = h * h * centeredSquares(tot.noise,
                                             sum_sq + tot.cross, n) +
                     2.0L * h * (c - a * b / cnt) + (e - b * b / cnt);
    res.error_stats = RunningStats::fromMoments(
        n, static_cast<double>(mean),
        static_cast<double>(std::max(m2, 0.0L)), tot.err_lo,
        tot.err_hi);
}

/**
 * Moments, histogram and trial estimates of a grid cohort whose
 * budget affords no fresh report: every report replays the range
 * midpoint @p mid, so all of them follow from the true readings.
 * Expects true_stats and nodes already set.
 */
void
foldMidpoint(CohortResult &res, uint32_t R, double mid)
{
    const uint64_t n = res.nodes * R;
    const RunningStats &x = res.true_stats;
    res.released_hist.add(mid, n);
    res.released_stats = RunningStats::fromMoments(n, mid, 0.0, mid, mid);
    res.trial_estimate.assign(R, mid);
    res.error_stats = RunningStats::fromMoments(
        n, mid - x.mean(),
        static_cast<double>(R) * x.variance() *
            static_cast<double>(x.count()),
        mid - x.max(), mid - x.min());
}

/**
 * Moments, histogram and trial estimates of an Ideal cohort: its
 * blocks' slabs merged in block-index order, which fixes the rounding
 * of the Welford moments and the per-trial sums. Expects nodes set.
 */
void
foldIdeal(CohortResult &res, std::span<const Block> blocks, uint32_t R)
{
    res.trial_estimate.assign(R, 0.0);
    for (const Block &b : blocks) {
        const IdealSlab &s = *b.ideal;
        res.released_stats.merge(s.released);
        res.error_stats.merge(s.error);
        res.released_hist.merge(s.hist);
        for (uint32_t t = 0; t < R; ++t)
            res.trial_estimate[t] += s.trial[t];
    }
    for (double &e : res.trial_estimate)
        e /= static_cast<double>(res.nodes);
}

/**
 * Heavy-hitter scan and the unbiased channel-inversion decode of a
 * cohort's merged sketch. Main thread, post-parallel-section: the
 * decode never sits on the ingest hot path.
 */
std::shared_ptr<CohortAggResult>
foldAgg(const CohortPlan &plan, const GridTally &tally)
{
    auto ar = std::make_shared<CohortAggResult>();
    ar->sketch = tally.sketch();
    if (plan.cfg.agg.heavy_hitters > 0)
        ar->heavy = agg::topK(ar->sketch.cm(), ar->sketch.span(),
                              plan.cfg.agg.heavy_hitters);
    ar->decoder = plan.decoder;
    ar->input_value0 = static_cast<double>(plan.lo_index) * plan.delta;
    ar->delta = plan.delta;
    auto d0 = std::chrono::steady_clock::now();
    ar->decoded = plan.decoder->decode(ar->sketch.slotTotals(),
                                       ar->input_value0, plan.delta);
    ar->decode_seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - d0).count();
    return ar;
}

} // anonymous namespace

std::vector<double>
CohortResult::trialReports(uint32_t trial) const
{
    ULPDP_ASSERT(!matrix.empty());
    ULPDP_ASSERT(static_cast<uint64_t>(trial) * nodes + nodes <=
                 matrix.size());
    auto first = matrix.begin() +
                 static_cast<ptrdiff_t>(trial * nodes);
    return std::vector<double>(first,
                               first + static_cast<ptrdiff_t>(nodes));
}

double
FleetReport::reportsPerSecond() const
{
    return seconds > 0.0
        ? static_cast<double>(total_reports) / seconds
        : 0.0;
}

uint64_t
FleetReport::fingerprint() const
{
    uint64_t acc = 0x1ee75a7e5eedULL;
    for (const CohortResult &c : cohorts) {
        acc = FleetSeeder::mix64(acc ^ c.checksum);
        acc = foldStats(acc, c.released_stats);
        acc = foldStats(acc, c.error_stats);
        acc = foldStats(acc, c.true_stats);
        for (size_t i = 0; i < c.released_hist.numBins(); ++i)
            acc = FleetSeeder::mix64(acc ^ c.released_hist.count(i));
        acc = FleetSeeder::mix64(acc ^ c.released_hist.underflow());
        acc = FleetSeeder::mix64(acc ^ c.released_hist.overflow());
        for (double e : c.trial_estimate)
            acc = FleetSeeder::mix64(acc ^ doubleBits(e));
        uint64_t counters[6] = {c.samples_drawn, c.resample_overflows,
                                c.fresh_reports, c.cache_replays,
                                c.nodes_exhausted,
                                c.rng_integrity_detections};
        acc = foldBytes(acc, counters, sizeof counters);
        // Streaming-aggregation state extends the fingerprint only
        // for cohorts that opted in, so agg-off runs keep their
        // committed baseline fingerprints bit for bit.
        if (c.agg) {
            for (uint64_t s : c.agg->sketch.slots())
                acc = FleetSeeder::mix64(acc ^ s);
            acc = FleetSeeder::mix64(acc ^ c.agg->sketch.total());
            acc = FleetSeeder::mix64(acc ^ c.agg->dropped);
            for (double v : c.agg->decoded.counts)
                acc = FleetSeeder::mix64(acc ^ doubleBits(v));
            uint64_t moments[5] = {
                doubleBits(c.agg->decoded.mean),
                doubleBits(c.agg->decoded.variance),
                doubleBits(c.agg->decoded.median),
                doubleBits(c.agg->decoded.boundary_mass_observed),
                doubleBits(c.agg->decoded.boundary_mass_expected)};
            acc = foldBytes(acc, moments, sizeof moments);
            for (const agg::HeavyHitter &h : c.agg->heavy) {
                acc = FleetSeeder::mix64(acc ^ h.item);
                acc = FleetSeeder::mix64(acc ^ h.estimate);
            }
        }
    }
    return acc;
}

FleetRunner::FleetRunner(FleetConfig config)
    : config_(std::move(config)), seeder_(config_.master_seed)
{
    if (config_.cohorts.empty())
        fatal("FleetRunner: configuration has no cohorts");
    if (config_.block_nodes == 0)
        fatal("FleetRunner: block_nodes must be positive");
    plans_.reserve(config_.cohorts.size());
    for (size_t c = 0; c < config_.cohorts.size(); ++c) {
        CohortPlan &plan = plans_.emplace_back(
            config_.cohorts[c], static_cast<uint32_t>(c));
        // The cohort's blocks and their slabs, reused by every epoch.
        plan.first_block = blocks_.size();
        for (uint64_t lo = 0; lo < plan.nodes; lo += config_.block_nodes) {
            Block &block = blocks_.emplace_back();
            block.cohort = plan.index;
            block.node_lo = lo;
            block.node_hi = std::min(plan.nodes, lo + config_.block_nodes);
            if (plan.mech.ideal)
                block.ideal = std::make_unique<IdealSlab>(plan);
        }
        plan.num_blocks = blocks_.size() - plan.first_block;
    }
}

FleetRunner::~FleetRunner() = default;

void
FleetRunner::forceScalarBlocks(bool on)
{
    g_force_scalar_blocks.store(on, std::memory_order_relaxed);
}

FleetReport
FleetRunner::run(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = static_cast<unsigned>(hardwareJobs());
    const unsigned spawn = static_cast<unsigned>(std::max<size_t>(
        1, std::min<size_t>(num_threads, blocks_.size())));

    // Untimed prologue: grow the parked pool (first wide call only)
    // and the scratch slots, zero every tally and block slab, size the
    // matrices (each block writes disjoint cells) and build the body
    // the pool schedules. Only the first `spawn` scratch slots are
    // merged, so a wider earlier epoch's slots cannot leak counts.
    WorkerPool &pool = WorkerPool::instance();
    if (spawn > 1)
        pool.reserve(spawn - 1);
    while (scratch_.size() < spawn)
        scratch_.push_back(std::make_unique<WorkerScratch>());
    for (unsigned w = 0; w < spawn; ++w)
        scratch_[w]->beginEpoch(plans_);
    for (Block &block : blocks_)
        block.clear(plans_[block.cohort]);
    std::vector<std::vector<double>> matrices(plans_.size());
    for (const CohortPlan &plan : plans_)
        if (plan.cfg.materialize)
            matrices[plan.index].assign(
                plan.nodes * plan.cfg.reports_per_node, 0.0);
    // Blocks map to slabs by block index, so which worker runs a
    // block (and whether it was stolen) never reaches the result.
    std::function<void(uint64_t, unsigned)> body =
        [&](uint64_t i, unsigned w) {
            Block &block = blocks_[i];
            const CohortPlan &plan = plans_[block.cohort];
            std::vector<double> &m = matrices[block.cohort];
            double *matrix = m.empty() ? nullptr : m.data();
            if (plan.mech.ideal)
                idealBlock(plan, seeder_, block, matrix);
            else
                gridBlock(plan, seeder_, block, *scratch_[w], matrix);
        };

    auto t0 = std::chrono::steady_clock::now();
    pool.forEach(blocks_.size(), spawn, body);
    auto t1 = std::chrono::steady_clock::now();

    return fold(spawn, std::chrono::duration<double>(t1 - t0).count(),
                matrices);
}

FleetReport
FleetRunner::fold(unsigned spawn, double seconds,
                  std::vector<std::vector<double>> &matrices)
{
    FleetReport report;
    report.threads = spawn;
    report.seconds = seconds;
    for (const CohortPlan &plan : plans_) {
        const uint32_t R = plan.cfg.reports_per_node;
        const std::span<const Block> blocks(
            blocks_.data() + plan.first_block, plan.num_blocks);
        CohortResult res(
            Histogram(plan.hist_lo, plan.hist_hi, kHistogramBins));
        res.name = plan.cfg.name;
        res.mechanism = plan.cfg.mechanism_name;
        res.nodes = plan.nodes;

        // Block slabs in block-index order, which fixes the rounding
        // of their few floating-point terms.
        BlockAccum tot;
        for (const Block &b : blocks)
            tot.merge(b.acc);
        res.samples_drawn = tot.samples;
        res.resample_overflows = tot.overflows;
        res.fresh_reports = tot.fresh;
        res.cache_replays = tot.replays;
        res.nodes_exhausted = tot.exhausted;
        res.rng_integrity_detections = tot.integrity;
        res.checksum = tot.checksum;
        res.true_stats = tot.true_vals;
        res.reports = res.fresh_reports + res.cache_replays;

        // Worker shards: all integer counts, merged in worker-index
        // order by repo convention (any order gives the same bits).
        GridTally tally = *scratch_[0]->tallies[plan.index];
        for (unsigned w = 1; w < spawn; ++w)
            tally.merge(*scratch_[w]->tallies[plan.index]);
        if (tally.dropped() != 0)
            fatal("FleetRunner: cohort '%s': %llu reports fell outside "
                  "the output window [%lld, %lld]", res.name.c_str(),
                  static_cast<unsigned long long>(tally.dropped()),
                  static_cast<long long>(plan.slot_lo),
                  static_cast<long long>(plan.slot_lo +
                                         plan.slot_span - 1));

        // The released and error moments: Ideal from its own slabs,
        // grid cohorts from the exact sums.
        if (plan.mech.ideal)
            foldIdeal(res, blocks, R);
        else if (plan.fresh_per_node == 0)
            foldMidpoint(res, R, plan.mid_value);
        else
            foldGrid(res, tally, tot, R, plan.delta);

        RunningStats abs_err;
        for (double e : res.trial_estimate)
            abs_err.add(std::abs(e - res.trueMean()));
        res.mean_mae = abs_err.mean();
        res.mean_mae_std = abs_err.stddev();
        res.worst_loss = plan.worst_loss;
        res.ldp = plan.ldp;
        res.matrix = std::move(matrices[plan.index]);
        report.total_reports += res.reports;
        if (plan.agg_on)
            res.agg = foldAgg(plan, tally);
        if (telemetry::enabled())
            publishCohort(res);

        // Journal the cohort's worst-case loss (fresh reports x the
        // flat metering bound: never an undercharge). The report is
        // already final, so a ledger cannot move a bit of it.
        if (config_.epoch_ledger != nullptr && res.fresh_reports > 0) {
            double charged = static_cast<double>(res.fresh_reports) *
                             plan.per_report_charge;
            if (!config_.epoch_ledger->journalSpend(charged))
                warn("FleetRunner: epoch ledger append failed for "
                     "cohort '%s'", res.name.c_str());
        }
        report.cohorts.push_back(std::move(res));
    }
    // Seal the epoch with a checkpoint.
    if (config_.epoch_ledger != nullptr)
        config_.epoch_ledger->commitCheckpoint(
            config_.epoch_ledger->remaining(),
            config_.epoch_ledger->cache());
    if (telemetry::enabled()) {
        // Per-worker telemetry deltas (forEach orders these reads
        // after every worker's writes).
        uint64_t fallbacks = 0;
        uint64_t clones = 0;
        for (unsigned w = 0; w < spawn; ++w) {
            fallbacks += scratch_[w]->fallbacks;
            clones += scratch_[w]->clones;
        }
        publishFleet(report, fallbacks, clones);
    }
    return report;
}

} // namespace ulpdp
