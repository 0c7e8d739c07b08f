#include "fleet/fleet.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>

#include "common/logging.h"
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

/** Run-level fleet metrics. The per-cohort counters are registered
 *  lazily at publish time because their label sets depend on the
 *  cohort names in the configuration. */
struct FleetMetrics
{
    Counter &runs = telemetry::registry().counter(
        "ulpdp_fleet_runs_total",
        "Fleet epochs executed",
        "runs");
    Gauge &throughput = telemetry::registry().gauge(
        "ulpdp_fleet_reports_per_second",
        "Throughput of the most recent fleet epoch",
        "reports/s");
    Gauge &threads = telemetry::registry().gauge(
        "ulpdp_fleet_threads",
        "Worker threads of the most recent fleet epoch",
        "threads");
    LatencyHistogram &seconds = telemetry::registry().histogram(
        "ulpdp_fleet_epoch_seconds",
        "Wall-clock duration per fleet epoch",
        "seconds",
        {0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0});
    Gauge &batch_lanes = telemetry::registry().gauge(
        "ulpdp_batch_lanes",
        "URNG lanes stepped in lockstep by the batch sampling bank",
        "lanes");
    Gauge &batch_prefetch = telemetry::registry().gauge(
        "ulpdp_batch_prefetch_batch_size",
        "Table slots prefetched ahead per batched trial row",
        "slots");
    Counter &batch_fallbacks = telemetry::registry().counter(
        "ulpdp_batch_scalar_fallbacks_total",
        "Blocks redone on the scalar path after a batch-sampler bail",
        "blocks");
    Counter &rng_clones = telemetry::registry().counter(
        "ulpdp_fleet_rng_clones_total",
        "Prototype RNG clones made by fleet workers",
        "clones");
};

FleetMetrics &
fleetMetrics()
{
    static FleetMetrics m;
    return m;
}

/**
 * Publish one merged cohort's counters into the process registry.
 *
 * Runs on the main thread *after* the block-order merge: the worker
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
    reg.counter("ulpdp_fleet_reports_total",
                "Reports released across the fleet by cohort",
                "reports", labels)
        .inc(res.reports);
    reg.counter("ulpdp_fleet_fresh_reports_total",
                "Fresh (budget-charged) reports by cohort",
                "reports", labels)
        .inc(res.fresh_reports);
    reg.counter("ulpdp_fleet_cache_replays_total",
                "Budget-exhausted cache replays by cohort",
                "reports", labels)
        .inc(res.cache_replays);
    reg.counter("ulpdp_fleet_samples_drawn_total",
                "Laplace samples drawn by cohort",
                "samples", labels)
        .inc(res.samples_drawn);
    reg.counter("ulpdp_fleet_resample_overflows_total",
                "Resampling draws degraded to a window clamp",
                "draws", labels)
        .inc(res.resample_overflows);
    reg.counter("ulpdp_fleet_nodes_exhausted_total",
                "Node-epochs whose budget ran out mid-epoch",
                "nodes", labels)
        .inc(res.nodes_exhausted);
    reg.counter("ulpdp_fleet_rng_integrity_detections_total",
                "Sampler-table integrity faults detected",
                "faults", labels)
        .inc(res.rng_integrity_detections);
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

} // anonymous namespace

/**
 * Everything a worker needs about one cohort, resolved once on the
 * main thread: grid indices, window, threshold, affordable report
 * count, the prototype RNG whose enumerated table every per-block
 * copy shares read-only, and the exact loss verdict.
 */
struct FleetRunner::CohortPlan
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

    CohortPlan(const CohortConfig &c, uint32_t cohort_index)
        : CohortPlan(c, cohort_index, resolveMechanism(c))
    {}

    CohortPlan(const CohortConfig &c, uint32_t cohort_index, Mech m)
        : cfg(c), index(cohort_index), mech(std::move(m)),
          proto(mech.params.rngConfig(), /*seed=*/1)
    {
        nodes = cfg.values.empty()
            ? cfg.nodes
            : static_cast<uint64_t>(cfg.values.size());
        if (nodes == 0)
            fatal("FleetRunner: cohort '%s' has no nodes (set nodes "
                  "or provide values)", cfg.name.c_str());
        if (cfg.reports_per_node == 0)
            fatal("FleetRunner: cohort '%s': reports_per_node must "
                  "be positive", cfg.name.c_str());

        delta = proto.quantizer().delta();
        lo_index = static_cast<int64_t>(
            std::llround(cfg.params.range.lo / delta));
        hi_index = static_cast<int64_t>(
            std::llround(cfg.params.range.hi / delta));
        mid_value = 0.5 * (cfg.params.range.lo + cfg.params.range.hi);
        lambda = mech.params.lambda();

        // Every registered mechanism guarantees the loss_multiple *
        // eps per-query bound (that is what certification enforces);
        // only the uncontrolled yardsticks charge plain eps.
        const bool controlled = !mech.ideal && !mech.naive;
        threshold = mech.threshold;
        win_lo = lo_index - threshold;
        win_hi = hi_index + threshold;

        // Worst-case flat charge per fresh report (never undercharges,
        // and the affordable count needs no randomness to evaluate).
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

        // Synthetic-data shape defaults: centered, range/6 std.
        data_mean = cfg.data_mean_set
            ? cfg.data_mean
            : mid_value;
        data_std = cfg.data_std > 0.0
            ? cfg.data_std
            : cfg.params.range.length() / 6.0;

        // Released-value histogram: the exact window for controlled
        // mechanisms, a generous +-2 lambda apron otherwise (the
        // under/overflow buckets catch the rest).
        double ext = controlled
            ? static_cast<double>(threshold) * delta
            : 2.0 * lambda;
        hist_lo = cfg.params.range.lo - ext;
        hist_hi = cfg.params.range.hi + ext;

        // Enumerate the sampling table once, before any worker copies
        // the prototype: every copy then shares it read-only. The
        // shared handle also feeds the batch sampling layer, so the
        // whole fleet references one enumeration.
        if (!mech.ideal)
            table = proto.sharedTable();
        batch_ok = table != nullptr && fresh_per_node > 0;

        worst_loss = cfg.params.epsilon;
        ldp = true;
        if (cfg.analyze_loss && !mech.ideal) {
            LossReport rep;
            if (mech.naive) {
                ThresholdCalculator calc(cfg.params);
                NaiveOutputModel model(calc.pmf(), calc.span());
                rep = PrivacyLossAnalyzer::analyze(model);
            } else {
                rep = PrivacyLossAnalyzer::analyze(*outputModel());
            }
            worst_loss = rep.bounded
                ? rep.worst_case_loss
                : std::numeric_limits<double>::infinity();
            double bound =
                cfg.loss_multiple * cfg.params.epsilon + 1e-9;
            ldp = rep.bounded && rep.worst_case_loss <= bound;
        } else if (mech.naive) {
            worst_loss = std::numeric_limits<double>::infinity();
            ldp = false;
        }

        // Streaming aggregation: resolve the sketch window from the
        // mechanism's exact output model and precompute the unbiased
        // channel-inversion decoder, once, on the main thread. Ideal
        // cohorts have no output grid and skip the layer.
        if (cfg.agg.enabled && !mech.ideal) {
            std::unique_ptr<DiscreteOutputModel> model;
            if (mech.naive) {
                ThresholdCalculator calc(cfg.params);
                model = std::make_unique<NaiveOutputModel>(
                    calc.pmf(), calc.span());
            } else {
                model = outputModel();
            }
            decoder =
                std::make_shared<agg::FrequencyDecoder>(*model);
            agg_out_lo = lo_index + model->outputLo();
            agg_span = decoder->numOutputs();
            agg_rows = cfg.agg.per_trial ? cfg.reports_per_node : 1;
            agg_on = true;
        } else if (cfg.agg.enabled) {
            warn("FleetRunner: cohort '%s': streaming aggregation "
                 "has no output grid under the 'ideal' mechanism; "
                 "disabled", cfg.name.c_str());
        }

        // Exact accumulation window: every output index a report can
        // take. Range control confines outputs to the threshold
        // window; the naive yardstick reaches the pipeline's largest
        // magnitude (URNG index 1; the pipeline is monotone) either
        // side of the range. The agg sketch window is the same
        // support (the mechanism's exact output model), so with agg
        // on the two tallies share one buffer.
        if (agg_on) {
            slot_lo = agg_out_lo;
            slot_span = agg_span;
        } else if (controlled) {
            slot_lo = win_lo;
            slot_span = static_cast<size_t>(win_hi - win_lo + 1);
        } else if (!mech.ideal) {
            int64_t reach = proto.pipeline(1, 1);
            slot_lo = lo_index - reach;
            slot_span =
                static_cast<size_t>(hi_index - lo_index + 2 * reach + 1);
        }
        mid_slot = static_cast<int64_t>(std::llround(mid_value / delta));
    }

    /**
     * The exact conditional output model of a registry-selected
     * mechanism, built from the registered factory (never called for
     * Ideal/Naive). Passing the already-resolved threshold back
     * through the spec skips a second exact-index search.
     */
    std::unique_ptr<DiscreteOutputModel>
    outputModel() const
    {
        MechanismSpec spec;
        spec.params = cfg.params;
        spec.loss_multiple = cfg.loss_multiple;
        spec.threshold_index = threshold;
        return MechanismRegistry::instance()
            .at(cfg.mechanism_name).model(spec);
    }

    uint64_t
    numBlocks(uint32_t block_nodes) const
    {
        return (nodes + block_nodes - 1) / block_nodes;
    }

    CohortConfig cfg;
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
    int64_t threshold = 0;
    int64_t win_lo = 0;
    int64_t win_hi = 0;
    double mid_value = 0.0;
    double lambda = 1.0;
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
    /** Absolute output grid index of sketch slot 0. */
    int64_t agg_out_lo = 0;
    /** Output slots per trial row. */
    size_t agg_span = 0;
    /** Trial rows in the slot array (reports_per_node if per-trial). */
    uint32_t agg_rows = 1;
    /** Shared precomputed channel pseudo-inverse. */
    std::shared_ptr<const agg::FrequencyDecoder> decoder;

    /** Exact accumulation window: absolute output index of slot 0
     *  and slot count (0 for Ideal cohorts, which have no grid). */
    int64_t slot_lo = 0;
    size_t slot_span = 0;
    /** Grid slot nearest the range midpoint, the report a node
     *  without any fresh report replays. */
    int64_t mid_slot = 0;
};

FleetRunner::CohortPlan::Mech
FleetRunner::CohortPlan::resolveMechanism(const CohortConfig &c)
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
    spec.threshold_index = c.threshold_index;
    MechanismLowering low = entry->lower(spec);
    m.params = low.params;
    m.threshold = low.threshold_index;
    m.truncated = low.truncated;
    m.clamp = low.clamp;
    return m;
}

/**
 * Worker-slot scratch that persists across blocks and epochs: the
 * steady-state hot loop allocates nothing and clones nothing.
 *
 * The cached FxpLaplaceRng clone and BatchSampler are keyed by cohort
 * index; both are rebuilt only on a cohort switch (or after an
 * integrity fault poisons the RNG clone). The BatchSampler is the
 * only object that holds the cohort table's shared_ptr -- taking that
 * copy once per cohort switch instead of once per block keeps the
 * control block's refcount line out of the cross-core traffic that
 * serialized PR 3's hot loop. A reused clone is indistinguishable
 * from a fresh one: streams are reseeded per node and counters are
 * read as per-block deltas.
 *
 * The 64-byte alignment keeps one worker's telemetry deltas
 * (fallbacks/clones, bumped per block) off its neighbours' lines.
 */
struct alignas(64) FleetRunner::WorkerScratch
{
    /**
     * One cohort's private accumulation shard: the exact report tally
     * of a grid cohort (holding the worker's agg sketch when agg is
     * on), or an Ideal cohort's histogram. Both are integer counts,
     * so shards merge in any order. Heap-owned per cohort, so one
     * slab's counters never share a line with another worker's.
     */
    struct CohortSlab
    {
        GridTally tally;
        std::optional<Histogram> ideal_hist;

        explicit CohortSlab(const CohortPlan &plan)
        {
            const CohortConfig &cfg = plan.cfg;
            if (plan.mech.ideal)
                return;
            if (plan.agg_on)
                tally = GridTally(
                    agg::CohortSketch(
                        cfg.agg, plan.agg_span, plan.agg_rows,
                        static_cast<double>(plan.agg_out_lo) *
                            plan.delta,
                        plan.delta),
                    plan.slot_lo, cfg.reports_per_node);
            else
                tally = GridTally(plan.slot_lo, plan.slot_span,
                                  cfg.reports_per_node);
        }

        /** Zero the counts for a new epoch. */
        void clear(const CohortPlan &plan)
        {
            tally.clear();
            if (plan.mech.ideal)
                ideal_hist.emplace(plan.hist_lo, plan.hist_hi,
                                   plan.cfg.histogram_bins);
        }
    };

    std::vector<int64_t> noise;  // scalar path, one node's batch
    std::vector<int64_t> rect;   // batch path, trial-major noise
    std::vector<BatchSampler::Window> windows =
        std::vector<BatchSampler::Window>(TausBank::kMaxLanes);
    std::optional<FxpLaplaceRng> rng;
    uint32_t rng_cohort = 0;
    std::optional<BatchSampler> sampler;
    uint32_t sampler_cohort = 0;
    /** Per-cohort accumulation shards; cleared per epoch, merged
     *  post-epoch. */
    std::vector<std::unique_ptr<CohortSlab>> slabs;
    /** Per-epoch telemetry deltas, flushed by the main thread after
     *  the merge (never a shared atomic on the hot path). */
    uint64_t clones = 0;
    uint64_t fallbacks = 0;
};

namespace {

/** One node's output-index sum and extremes over its reports. */
struct NodeIndices
{
    int64_t sum = 0;
    int64_t lo = std::numeric_limits<int64_t>::max();
    int64_t hi = std::numeric_limits<int64_t>::min();

    void add(int64_t y)
    {
        sum += y;
        lo = std::min(lo, y);
        hi = std::max(hi, y);
    }
};

/**
 * Per-block counters and per-node terms: fixed size, no heap. One
 * thread writes a block's slab; the fold merges slabs in block-index
 * order, which fixes the rounding of the few floating-point fields
 * (the true-reading Welford, the quantization-residual sums and the
 * Ideal side path). Per-report integer state lives in the worker's
 * CohortSlab instead. The 64-byte alignment keeps the tail fields of
 * adjacent slabs in a vector off each other's cache lines.
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
struct alignas(64) BlockAccum
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

    /** Ideal cohorts: per-report Welford side path. */
    RunningStats ideal_released;
    RunningStats ideal_error;

    /** Fold one grid node with true reading @p x, input index
     *  @p xi and the output indices @p ys of its @p R reports. */
    void addGridNode(double x, int64_t xi, const NodeIndices &ys,
                     uint32_t R, double delta)
    {
        const int64_t sum = ys.sum;
        const int64_t d = sum - static_cast<int64_t>(R) * xi;
        const double r = static_cast<double>(xi) * delta - x;
        noise += d;
        cross += static_cast<__int128>(xi) *
                 (static_cast<int64_t>(R) * xi - 2 * sum);
        resid += r;
        resid_noise += r * static_cast<double>(d);
        resid_sq += r * r;
        err_lo = std::min(err_lo, static_cast<double>(ys.lo) * delta - x);
        err_hi = std::max(err_hi, static_cast<double>(ys.hi) * delta - x);
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
        ideal_released.merge(o.ideal_released);
        ideal_error.merge(o.ideal_error);
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

/** One claimable unit of work: a block of consecutive nodes. */
struct WorkItem
{
    uint32_t cohort;
    uint64_t node_lo;
    uint64_t node_hi;
    BlockAccum *accum;
    /** Ideal cohorts: the block's per-trial released-value sums. */
    double *ideal_trial;
};

/**
 * One worker's claimable range of block indices [next, end). Owners
 * claim adaptive chunks from their own queue (an uncontended RMW on a
 * line no other core touches in the common case); thieves claim
 * single blocks once their own queue is dry. fetch_add past `end` is
 * benign -- the claimer sees an out-of-range index and moves on.
 * Padded so queues in a vector never share a cache line (the shared
 * single claim counter was one of PR 3's serialization points).
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
    for (size_t i = 0; i < config_.cohorts.size(); ++i)
        plans_.emplace_back(config_.cohorts[i],
                            static_cast<uint32_t>(i));
}

FleetRunner::~FleetRunner() = default;

unsigned
FleetRunner::hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

namespace {
std::atomic<bool> g_force_scalar_blocks{false};
} // anonymous namespace

void
FleetRunner::forceScalarBlocks(bool on)
{
    g_force_scalar_blocks.store(on, std::memory_order_relaxed);
}

FleetReport
FleetRunner::run(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = hardwareThreads();

    // Per-cohort block slabs, pre-sized so workers never allocate
    // shared state; materialized matrices and Ideal per-block trial
    // sums likewise (each block writes disjoint cells).
    std::vector<std::vector<BlockAccum>> accums(plans_.size());
    std::vector<std::vector<double>> matrices(plans_.size());
    std::vector<std::vector<double>> ideal_trials(plans_.size());
    std::vector<WorkItem> items;
    for (size_t c = 0; c < plans_.size(); ++c) {
        CohortPlan &plan = plans_[c];
        const uint32_t R = plan.cfg.reports_per_node;
        uint64_t nblocks = plan.numBlocks(config_.block_nodes);
        accums[c].resize(nblocks);
        if (plan.cfg.materialize)
            matrices[c].assign(plan.nodes * R, 0.0);
        if (plan.mech.ideal)
            ideal_trials[c].assign(nblocks * R, 0.0);
        for (uint64_t b = 0; b < nblocks; ++b) {
            uint64_t lo = b * config_.block_nodes;
            uint64_t hi = std::min(plan.nodes,
                                   lo + config_.block_nodes);
            double *trial = plan.mech.ideal
                ? ideal_trials[c].data() + b * R
                : nullptr;
            items.push_back(WorkItem{static_cast<uint32_t>(c), lo, hi,
                                     &accums[c][b], trial});
        }
    }

    // One block, start to finish, into its private slab. Which worker
    // runs it (and when) is irrelevant to the result -- everything
    // below depends only on (master seed, cohort, node id) and the
    // static block -> slab mapping.
    auto processBlock = [&](const WorkItem &item, WorkerScratch &ws) {
        constexpr size_t W = TausBank::kMaxLanes;
        const CohortPlan &plan = plans_[item.cohort];
        const CohortConfig &cfg = plan.cfg;
        BlockAccum &acc = *item.accum;
        WorkerScratch::CohortSlab &slab = *ws.slabs[item.cohort];
        double *matrix = cfg.materialize
            ? matrices[item.cohort].data()
            : nullptr;

        const uint32_t R = cfg.reports_per_node;
        const uint32_t fresh = plan.fresh_per_node;

        auto trueValue = [&](uint64_t node, uint64_t seed) {
            return cfg.values.empty()
                ? synthValue(FleetSeeder::subSeed(seed, kDataSalt),
                             plan.data_mean, plan.data_std,
                             cfg.params.range.lo, cfg.params.range.hi)
                : cfg.values[node];
        };
        // Digest (and materialize) one released report.
        auto release = [&](uint64_t node, uint32_t t, double released) {
            acc.checksum += reportDigest(node, t, released);
            if (matrix != nullptr)
                matrix[static_cast<uint64_t>(t) * plan.nodes + node] =
                    released;
        };
        auto inputIndex = [&](double x) {
            int64_t xi = static_cast<int64_t>(std::llround(x / plan.delta));
            return std::clamp(xi, plan.lo_index, plan.hi_index);
        };

        // -- Ideal yardstick: continuous values, no output grid. A
        // per-report Welford side path, merged in block order, plus
        // the worker's (integer, order-free) histogram.
        if (plan.mech.ideal) {
            Histogram &hist = *slab.ideal_hist;
            for (uint64_t node = item.node_lo; node < item.node_hi;
                 ++node) {
                uint64_t seed = seeder_.nodeSeed(plan.index, node);
                double x = trueValue(node, seed);
                acc.true_vals.add(x);
                IdealLaplace ideal(plan.lambda, seed);
                // Budget exhausted: replay the cached report, or the
                // range midpoint when nothing was ever released.
                double released = plan.mid_value;
                for (uint32_t t = 0; t < R; ++t) {
                    if (t < fresh)
                        released = x + ideal.sample();
                    hist.add(released);
                    acc.ideal_released.add(released);
                    acc.ideal_error.add(released - x);
                    item.ideal_trial[t] += released;
                    release(node, t, released);
                }
            }
            const uint64_t nodes = item.node_hi - item.node_lo;
            acc.samples += nodes * fresh;
            acc.addReports(nodes, fresh, R);
            return;
        }

        // -- Exact integer accumulation: one slot bump and one
        // per-trial index sum per report (GridTally; with agg on the
        // slot bump is the agg sketch's own delta), everything else
        // per node. The block reaches the worker's totals only at
        // endBlock().
        GridTally &tally = slab.tally;
        tally.beginBlock();
        // Registry-lowered execution shape: the loop never sees the
        // mechanism's name, only these two booleans.
        const bool truncated = plan.mech.truncated;
        const bool clamp = plan.mech.clamp;

        // -- Batch path: fill the 16-lane bank with consecutive nodes
        // and draw every fresh report of the group in one rect. Lane
        // l is bit-identical to the scalar stream of node lo + l, so
        // the accumulation below produces the exact scalar numbers.
        if (plan.batch_ok &&
            !g_force_scalar_blocks.load(std::memory_order_relaxed)) {
            // Cohort-cached sampler: constructing one per block copied
            // the table's shared_ptr, and the refcount RMW on that
            // shared control-block line was cross-core traffic on
            // every block claim. The cached instance keeps a stable
            // reference; the hot loop below only ever reads the table
            // through a plain pointer.
            if (!ws.sampler || ws.sampler_cohort != item.cohort) {
                ws.sampler.emplace(plan.table,
                                   plan.proto.config().uniform_bits,
                                   plan.proto.quantizer().maxIndex(),
                                   plan.proto.config().integrity_checks);
                ws.sampler_cohort = item.cohort;
            }
            BatchSampler &bs = *ws.sampler;
            std::vector<BatchSampler::Window> &windows = ws.windows;
            std::vector<int64_t> &rect = ws.rect;
            rect.resize(W * static_cast<size_t>(fresh));
            uint64_t seeds[W];
            double xs[W];
            int64_t xis[W];
            bool ok = true;
            for (uint64_t lo = item.node_lo; lo < item.node_hi;
                 lo += W) {
                size_t lanes = static_cast<size_t>(
                    std::min<uint64_t>(W, item.node_hi - lo));
                for (size_t l = 0; l < lanes; ++l) {
                    seeds[l] = seeder_.nodeSeed(plan.index, lo + l);
                    xs[l] = trueValue(lo + l, seeds[l]);
                    xis[l] = inputIndex(xs[l]);
                    if (truncated)
                        windows[l] = {plan.win_lo - xis[l],
                                      plan.win_hi - xis[l]};
                }
                bs.seedLanes(seeds, lanes);
                ok = truncated
                    ? bs.sampleTruncatedRect(windows.data(),
                                             rect.data(), fresh)
                    : bs.sampleRect(rect.data(), fresh);
                if (!ok)
                    break;
                for (size_t l = 0; l < lanes; ++l) {
                    const uint64_t node = lo + l;
                    const int64_t xi = xis[l];
                    acc.true_vals.add(xs[l]);
                    int64_t yi = 0;
                    NodeIndices ys;
                    for (uint32_t t = 0; t < R; ++t) {
                        // Past the budget the node replays its last
                        // fresh report (fresh >= 1 on this path).
                        if (t < fresh) {
                            yi = xi + rect[static_cast<size_t>(t) *
                                               lanes + l];
                            if (clamp)
                                yi = std::clamp(yi, plan.win_lo,
                                                plan.win_hi);
                        }
                        tally.add(t, yi);
                        ys.add(yi);
                        release(node, t,
                                static_cast<double>(yi) * plan.delta);
                    }
                    acc.addGridNode(xs[l], xi, ys, R, plan.delta);
                }
                acc.samples += lanes * fresh;
                acc.addReports(lanes, fresh, R);
            }
            if (ok) {
                tally.endBlock();
                return;
            }
            // A comparator tripped, or a window holds no URNG state:
            // discard the whole block -- its slab and the worker's
            // block deltas -- and redo it scalar. Every node restarts
            // from its seed, so the redo is bit-identical to never
            // having batched, and the scalar integrity path
            // quarantines (or clamps) with the exact per-draw
            // semantics.
            acc = BlockAccum{};
            tally.beginBlock();
            ++ws.fallbacks;
        }

        // -- Scalar path: fresh == 0 cohorts, tableless
        // configurations, and batch-fallback redos.
        std::optional<FxpLaplaceRng> &rng = ws.rng;
        if (!rng || ws.rng_cohort != item.cohort ||
            rng->integrityFault()) {
            rng.emplace(plan.proto);
            ws.rng_cohort = item.cohort;
            ++ws.clones;
        }
        const bool batched = plan.mech.naive || clamp;
        // A node that never releases a fresh report replays the range
        // midpoint, which is off the grid: the fold derives such a
        // cohort's moments from the true readings, and the agg
        // stream sees the midpoint's nearest slot.
        const bool midpoint = fresh == 0;
        std::vector<int64_t> &noise = ws.noise;
        noise.resize(batched ? fresh : 0);
        const uint64_t drawn_before = rng->samplesDrawn();
        const uint64_t integ_before = rng->integrityDetections();

        for (uint64_t node = item.node_lo; node < item.node_hi; ++node) {
            uint64_t seed = seeder_.nodeSeed(plan.index, node);
            double x = trueValue(node, seed);
            acc.true_vals.add(x);
            const int64_t xi = inputIndex(x);
            rng->urng() = Tausworthe(seed);
            if (batched && fresh > 0)
                rng->sampleBatch(noise.data(), fresh);

            int64_t yi = plan.mid_slot;
            NodeIndices ys;
            for (uint32_t t = 0; t < R; ++t) {
                if (t < fresh) {
                    if (batched) {
                        yi = xi + noise[t];
                        if (clamp)
                            yi = std::clamp(yi, plan.win_lo,
                                            plan.win_hi);
                    } else {
                        // drawConfinedOutput's samples out-param is
                        // per-request (it assigns); the block total
                        // comes from samplesDrawn() below.
                        uint64_t scratch = 0;
                        yi = drawConfinedOutput(
                            *rng, RangeControl::Resampling, xi,
                            plan.win_lo, plan.win_hi,
                            uint64_t{1} << 20, scratch,
                            acc.overflows, "FleetRunner");
                    }
                }
                tally.add(t, yi);
                ys.add(yi);
                release(node, t,
                        midpoint ? plan.mid_value
                                 : static_cast<double>(yi) * plan.delta);
            }
            acc.addGridNode(x, xi, ys, R, plan.delta);
        }
        acc.addReports(item.node_hi - item.node_lo, fresh, R);
        acc.samples += rng->samplesDrawn() - drawn_before;
        acc.integrity += rng->integrityDetections() - integ_before;
        tally.endBlock();
    };

    unsigned spawn = static_cast<unsigned>(
        std::min<size_t>(num_threads, items.size()));
    if (spawn == 0)
        spawn = 1;

    // Per-worker work queues: contiguous block-index ranges, claimed
    // chunk-wise by their owner and block-wise by thieves. The
    // contiguous split keeps one worker walking consecutive slabs
    // (prefetch-friendly) and makes the common claim an RMW on a line
    // only the owner touches.
    std::vector<WorkQueue> queues(spawn);
    for (unsigned w = 0; w < spawn; ++w) {
        uint64_t lo = static_cast<uint64_t>(items.size()) * w / spawn;
        uint64_t hi =
            static_cast<uint64_t>(items.size()) * (w + 1) / spawn;
        queues[w].next.store(lo, std::memory_order_relaxed);
        queues[w].end = hi;
        queues[w].chunk = std::max<uint64_t>(1, (hi - lo) / 8);
    }

    auto job = [&](unsigned w) {
        WorkerScratch &ws = *scratch_[w];
        WorkQueue &own = queues[w];
        for (;;) {
            uint64_t i =
                own.next.fetch_add(own.chunk,
                                   std::memory_order_relaxed);
            if (i >= own.end)
                break;
            uint64_t hi = std::min(i + own.chunk, own.end);
            for (; i < hi; ++i)
                processBlock(items[i], ws);
        }
        // Own queue dry: steal single blocks until a full sweep of
        // the other queues finds nothing. Stealing only moves blocks
        // between workers; the block -> slab mapping is untouched.
        for (bool stole = true; stole && spawn > 1;) {
            stole = false;
            for (unsigned v = 1; v < spawn; ++v) {
                WorkQueue &q = queues[(w + v) % spawn];
                if (q.looksEmpty())
                    continue;
                uint64_t i =
                    q.next.fetch_add(1, std::memory_order_relaxed);
                if (i >= q.end)
                    continue;
                processBlock(items[i], ws);
                stole = true;
            }
        }
    };

    // Everything below this comment and above the t0 stamp is epoch
    // setup that must never be timed: growing the parked pool to the
    // requested width (first epoch only), growing the per-worker
    // scratch slots, and materializing the type-erased job the pool
    // dispatches.
    if (spawn > 1)
        pool_.reserve(spawn - 1);
    while (scratch_.size() < spawn)
        scratch_.push_back(std::make_unique<WorkerScratch>());
    for (unsigned w = 0; w < spawn; ++w) {
        WorkerScratch &ws = *scratch_[w];
        ws.fallbacks = 0;
        ws.clones = 0;
        // Accumulation shards: allocate once per (worker, cohort) --
        // sized by the plan, so epoch reuse only zeroes counters --
        // and always reset before the timer starts. Only the first
        // `spawn` scratch slots are merged below, so slots left over
        // from a wider earlier epoch cannot leak stale counts.
        if (ws.slabs.size() < plans_.size())
            ws.slabs.resize(plans_.size());
        for (size_t c = 0; c < plans_.size(); ++c) {
            auto &slab = ws.slabs[c];
            if (!slab)
                slab = std::make_unique<WorkerScratch::CohortSlab>(
                    plans_[c]);
            slab->clear(plans_[c]);
        }
    }
    std::function<void(unsigned)> job_fn = job;

    auto t0 = std::chrono::steady_clock::now();
    pool_.dispatch(spawn, job_fn);
    auto t1 = std::chrono::steady_clock::now();

    // Per-worker telemetry deltas, summed post-epoch on the main
    // thread (the pool's dispatch handshake orders the reads after
    // every worker's writes).
    uint64_t batch_fallbacks = 0;
    uint64_t rng_clones = 0;
    for (unsigned w = 0; w < spawn; ++w) {
        batch_fallbacks += scratch_[w]->fallbacks;
        rng_clones += scratch_[w]->clones;
    }

    // Fold each cohort: block slabs in block-index order (which fixes
    // the rounding of their few floating-point terms), worker shards
    // in any order (all integers), then the released and error
    // moments from the exact sums.
    FleetReport report;
    report.threads = spawn;
    report.seconds =
        std::chrono::duration<double>(t1 - t0).count();
    for (size_t c = 0; c < plans_.size(); ++c) {
        const CohortPlan &plan = plans_[c];
        const uint32_t R = plan.cfg.reports_per_node;
        CohortResult res(Histogram(plan.hist_lo, plan.hist_hi,
                                   plan.cfg.histogram_bins));
        res.name = plan.cfg.name;
        res.mechanism = plan.cfg.mechanism_name;
        res.nodes = plan.nodes;
        BlockAccum tot;
        for (const BlockAccum &acc : accums[c])
            tot.merge(acc);
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
        GridTally tally;
        for (unsigned w = 0; w < spawn; ++w) {
            const WorkerScratch::CohortSlab &slab =
                *scratch_[w]->slabs[c];
            if (w == 0)
                tally = slab.tally;
            else
                tally.merge(slab.tally);
            if (slab.ideal_hist)
                res.released_hist.merge(*slab.ideal_hist);
        }
        if (tally.dropped() != 0)
            fatal("FleetRunner: cohort '%s': %llu reports fell outside "
                  "the output window [%lld, %lld]",
                  plan.cfg.name.c_str(),
                  static_cast<unsigned long long>(tally.dropped()),
                  static_cast<long long>(plan.slot_lo),
                  static_cast<long long>(plan.slot_lo +
                                         plan.slot_span - 1));

        if (plan.mech.ideal) {
            res.released_stats = tot.ideal_released;
            res.error_stats = tot.ideal_error;
            res.trial_estimate.assign(R, 0.0);
            for (size_t b = 0; b < accums[c].size(); ++b)
                for (uint32_t t = 0; t < R; ++t)
                    res.trial_estimate[t] += ideal_trials[c][b * R + t];
            for (double &e : res.trial_estimate)
                e /= static_cast<double>(plan.nodes);
        } else if (plan.fresh_per_node == 0) {
            foldMidpoint(res, R, plan.mid_value);
        } else {
            foldGrid(res, tally, tot, R, plan.delta);
        }

        RunningStats abs_err;
        for (double e : res.trial_estimate)
            abs_err.add(std::abs(e - res.trueMean()));
        res.mean_mae = abs_err.mean();
        res.mean_mae_std = abs_err.stddev();

        res.worst_loss = plan.worst_loss;
        res.ldp = plan.ldp;
        res.matrix = std::move(matrices[c]);
        report.total_reports += res.reports;

        // Heavy-hitter scan and the unbiased channel-inversion
        // decode. Main thread, post-parallel-section: the decode
        // never sits on the ingest hot path.
        if (plan.agg_on) {
            auto ar = std::make_shared<CohortAggResult>();
            ar->sketch = tally.sketch();
            if (plan.cfg.agg.heavy_hitters > 0) {
                ar->heavy = agg::topK(ar->sketch.cm(),
                                      ar->sketch.span(),
                                      plan.cfg.agg.heavy_hitters);
            }
            ar->decoder = plan.decoder;
            ar->input_value0 =
                static_cast<double>(plan.lo_index) * plan.delta;
            ar->delta = plan.delta;
            auto d0 = std::chrono::steady_clock::now();
            ar->decoded = plan.decoder->decode(
                ar->sketch.slotTotals(), ar->input_value0,
                plan.delta);
            ar->decode_seconds = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - d0).count();
            res.agg = std::move(ar);
        }
        if (telemetry::enabled())
            publishCohort(res);

        // Durable epoch accounting: journal the cohort's worst-case
        // loss (fresh reports x the flat metering bound -- never an
        // undercharge) and seal the epoch with a checkpoint. Main
        // thread, post-merge: the FleetReport and its fingerprint are
        // already final, so a ledger cannot move a bit of them.
        if (config_.epoch_ledger != nullptr &&
            res.fresh_reports > 0) {
            double charged = static_cast<double>(res.fresh_reports) *
                             plan.per_report_charge;
            if (!config_.epoch_ledger->journalSpend(charged))
                warn("FleetRunner: epoch ledger append failed for "
                     "cohort '%s'", res.name.c_str());
        }
        report.cohorts.push_back(std::move(res));
    }
    if (config_.epoch_ledger != nullptr)
        config_.epoch_ledger->commitCheckpoint(
            config_.epoch_ledger->remaining(),
            config_.epoch_ledger->cache());
    if (telemetry::enabled()) {
        FleetMetrics &m = fleetMetrics();
        m.runs.inc();
        m.threads.set(static_cast<double>(report.threads));
        m.throughput.set(report.reportsPerSecond());
        m.seconds.observe(report.seconds);
        // Batch-layer observability. None of these feed the
        // FleetReport or its fingerprint: the determinism contract is
        // about the merged result, not about which path produced it.
        m.batch_lanes.set(
            static_cast<double>(TausBank::kMaxLanes));
        m.batch_prefetch.set(
            static_cast<double>(TausBank::kMaxLanes));
        m.batch_fallbacks.inc(batch_fallbacks);
        m.rng_clones.inc(rng_clones);
    }
    return report;
}

} // namespace ulpdp
