/**
 * @file
 * Parallel fleet engine: simulate N independent DP-Box nodes at
 * population scale.
 *
 * The paper's utility story (Tables II-V, Fig. 15) only exists in the
 * aggregate: an analyst averages millions of locally-noised reports
 * and the noise cancels. Every simulation path in this repo used to
 * be a single sequential loop; this engine is the fleet-scale runner
 * that every scaling experiment builds on.
 *
 * Determinism contract -- the merged FleetReport is bit-identical for
 * any thread count and any scheduling, because nothing in the result
 * depends on execution order:
 *
 *  - Every node owns an independent Tausworthe stream derived from
 *    (master seed, cohort, node id) by FleetSeeder, so which thread
 *    simulates a node cannot change what the node does.
 *  - Work is sharded into fixed-size *blocks* of consecutive nodes.
 *    The block size is a configuration constant, not a function of
 *    the thread count. Each report is tallied as an exact integer
 *    (its output slot count and per-trial index sum, GridTally) in
 *    the worker's private shard; each block keeps its counters and a
 *    few per-node floating-point terms in its own cache-line-aligned
 *    slab (no locks, no atomics, no sharing on the hot path -- the
 *    only synchronisation is the relaxed claim RMW on a per-worker
 *    work queue, plus occasional steals from a drained worker).
 *  - At the end the main thread merges the integer shards (in any
 *    order: integer addition is associative) and the block slabs in
 *    block-index order, which fixes the rounding of their few
 *    floating-point terms whichever thread finished first. Released
 *    moments, histogram and trial means are then derived from the
 *    exact integer sums.
 *
 * The hot path rides the batch sampling layer (rng/batch_sampler.h):
 * workers fill a 16-lane Tausworthe bank with consecutive nodes'
 * streams and draw every fresh report of the group in one rect --
 * SIMD-stepped URNG words feeding blocked, prefetched table lookups,
 * with the window-confined (resampling) variant hoisting the
 * acceptance mass out of the trial loop. Lane l is bit-identical to
 * node l's scalar stream, so the batched accumulation (still strictly
 * in (node, trial) order) produces the exact report values of the
 * scalar path; any batch-layer integrity bail falls back to redoing
 * the whole block through the per-draw scalar code. The per-cohort
 * sampling table is enumerated once on the main thread and shared
 * read-only by every worker.
 */

#ifndef ULPDP_FLEET_FLEET_H
#define ULPDP_FLEET_FLEET_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "agg/decode.h"
#include "agg/stream.h"
#include "common/histogram.h"
#include "common/stats.h"
#include "core/fxp_params.h"
#include "fleet/seeder.h"
#include "fleet/worker_pool.h"

namespace ulpdp {

/**
 * One cohort: a group of nodes sharing a mechanism configuration.
 * Different cohorts of one fleet can run different mechanisms,
 * epsilons and budgets (e.g. an A/B experiment across the install
 * base).
 */
struct CohortConfig
{
    /** Cohort label for reports. */
    std::string name = "cohort";

    /**
     * Mechanism every node of this cohort runs, by registry name
     * (e.g. "thresholding", "resampling", "bounded-laplace"). The
     * entry must advertise a fleet lowering
     * (MechanismRegistry::Entry::lower). Two further names select
     * the paper's uncertified yardsticks, which are deliberately not
     * registered: "ideal" (continuous double-precision Laplace) and
     * "naive" (fixed-point noise with no range control, not LDP).
     * Any other name, or an empty one, is fatal at plan time.
     */
    std::string mechanism_name = "thresholding";

    /** Fixed-point parameters (range, eps, Bu, By, Delta). The
     *  params.seed field is ignored: fleet nodes are seeded per node
     *  by the FleetSeeder. */
    FxpMechanismParams params;

    /** Loss bound multiple n for the exact threshold search (range-
     *  controlled mechanisms; must exceed 1). */
    double loss_multiple = 2.0;

    /** Explicit window extension in Delta units; >= 0 overrides the
     *  exact search (use for sweeps of mis-provisioned windows). */
    int64_t threshold_index = -1;

    /** Node count (ignored when @ref values is non-empty). */
    uint64_t nodes = 0;

    /** Reports each node releases per epoch ("trials" in the utility
     *  benches: trial t is every node's t-th report). */
    uint32_t reports_per_node = 1;

    /**
     * Explicit per-node true readings (dataset replay: node i holds
     * values[i]). Empty selects synthetic clipped-Gaussian data.
     */
    std::vector<double> values;

    /** Synthetic data mean; NaN/unset centers on the sensor range. */
    double data_mean = 0.0;

    /** Synthetic data std; <= 0 selects range length / 6. */
    double data_std = 0.0;

    /** Set when data_mean was explicitly chosen. */
    bool data_mean_set = false;

    /**
     * Per-node privacy budget for one epoch; 0 disables metering.
     * Metering is deliberately worst-case (every fresh report is
     * charged the full configured bound -- loss_multiple * eps for
     * range-controlled cohorts, eps otherwise) so the affordable
     * report count is a pure function of the budget: the halt check
     * never consumes randomness, matching the check-before-sample
     * ordering of BudgetController. Exhausted nodes replay their
     * cached previous report (zero additional loss).
     */
    double budget_per_node = 0.0;

    /** Bins of the released-value histogram. */
    size_t histogram_bins = 64;

    /**
     * Materialize the full report matrix (reports_per_node x nodes,
     * row-major) so per-trial order-statistic queries (median,
     * percentiles) can run after the fact. Each block writes its own
     * disjoint columns, so the matrix contents are thread-count
     * independent too. Intended for utility-table-sized cohorts;
     * streaming cohorts (millions of nodes) leave this off.
     */
    bool materialize = false;

    /** Skip the exact whole-support privacy-loss analysis (it scans
     *  every (input, output) pair once per cohort on the main thread;
     *  cheap for paper-sized spans, skippable for throughput runs). */
    bool analyze_loss = true;

    /**
     * Streaming aggregation (src/agg): per-worker mergeable sketch
     * slabs ride the block hot loop and the post-epoch merge decodes
     * them with the unbiased channel-inversion estimator. Off by
     * default -- enabling it extends the fingerprint with the sketch
     * state, so existing baselines are untouched until a cohort opts
     * in. Ignored for "ideal" cohorts (no output grid to sketch on).
     */
    agg::AggConfig agg;
};

class BudgetLedger;

/** Fleet-wide configuration. */
struct FleetConfig
{
    /** Master seed every per-node stream derives from. */
    uint64_t master_seed = 1;

    /**
     * Nodes per scheduling/merge block. Results depend on this
     * constant (it fixes the merge tree of the per-node float terms,
     * e.g. the true-reading moments) but never on the thread count.
     * The default keeps per-block slabs cache-friendly
     * while giving a 1M-node fleet ~1000 blocks to balance across
     * threads.
     */
    uint32_t block_nodes = 1024;

    /** The cohorts to simulate. */
    std::vector<CohortConfig> cohorts;

    /**
     * Optional durable epoch ledger (borrowed; must outlive the
     * runner and be mounted). After each epoch's merge the main
     * thread journals, per cohort, the worst-case privacy loss of its
     * fresh reports (fresh_reports x the same flat per-report bound
     * the budget metering uses -- never an undercharge) and commits a
     * checkpoint. Journaling happens entirely outside the parallel
     * section and after the merge, so it cannot move a bit of the
     * FleetReport: the fingerprint is identical with and without a
     * ledger attached on a fault-free run.
     */
    BudgetLedger *epoch_ledger = nullptr;
};

/**
 * Merged streaming-aggregation state of one cohort (present iff the
 * cohort enabled CohortConfig::agg). Everything except decode_seconds
 * is part of the determinism contract: the sketch is pure integer
 * counters merged shard-wise, and the decode is a deterministic
 * function of those integers, so every field is bit-identical across
 * thread counts.
 */
struct CohortAggResult
{
    /** Merged sketch state (exact slot counts, count-min, quantiles). */
    agg::CohortSketch sketch;

    /** Heavy-hitter slots by count-min estimate, deterministic order. */
    std::vector<agg::HeavyHitter> heavy;

    /** Unbiased channel-inversion decode of the merged slot totals. */
    agg::DecodedFrequencies decoded;

    /** The cohort's precomputed decoder; utility benches reuse it for
     *  per-trial decodes over sketch.trialSlots(t). */
    std::shared_ptr<const agg::FrequencyDecoder> decoder;

    /** Physical value of input grid index 0 and the grid step, for
     *  feeding decoder->decode() externally. */
    double input_value0 = 0.0;
    double delta = 0.0;

    /** Reports whose output index fell outside the sketch window.
     *  Always 0 in a returned result: the fleet's own moments are
     *  built from the same slot counts, so a drop is fatal. Kept in
     *  the fingerprint. */
    uint64_t dropped = 0;

    /** Wall-clock seconds of the post-merge decode (not part of the
     *  determinism contract). */
    double decode_seconds = 0.0;
};

/** Merged per-cohort result. */
struct CohortResult
{
    explicit CohortResult(const Histogram &h) : released_hist(h) {}

    /** Cohort label. */
    std::string name;

    /** Name of the mechanism the cohort ran (its
     *  CohortConfig::mechanism_name; not part of the fingerprint). */
    std::string mechanism;

    /** Nodes simulated. */
    uint64_t nodes = 0;

    /** Reports released (nodes * reports_per_node). */
    uint64_t reports = 0;

    /** Histogram of every released value. */
    Histogram released_hist;

    /** Moments of every released value: exact, from integer sums
     *  over the output grid (Welford for the "ideal" yardstick). */
    RunningStats released_stats;

    /** Moments of (released - true) per report, from the same exact
     *  sums plus per-node quantization residuals. */
    RunningStats error_stats;

    /** Welford moments of the true per-node readings. */
    RunningStats true_stats;

    /** Per-trial mean estimate: mean over nodes of trial t's
     *  reports (the analyst's population-mean estimate), from the
     *  exact per-trial index sum. */
    std::vector<double> trial_estimate;

    /** MAE of the trial mean estimates against the true mean, and
     *  its std over trials (the Fig. 15 / Tables II-V metric). */
    double mean_mae = 0.0;
    double mean_mae_std = 0.0;

    /** Laplace samples drawn (energy/latency proxy). */
    uint64_t samples_drawn = 0;

    /** Confined draws degraded to a window-edge clamp. */
    uint64_t resample_overflows = 0;

    /** Reports released with fresh noise. */
    uint64_t fresh_reports = 0;

    /** Reports served by replaying the node's cached report. */
    uint64_t cache_replays = 0;

    /** Nodes whose budget could not cover all reports. */
    uint64_t nodes_exhausted = 0;

    /** Sampler-table integrity faults detected across the fleet. */
    uint64_t rng_integrity_detections = 0;

    /**
     * Order-independent digest of every (node, trial, released bit
     * pattern) triple: two runs are report-for-report identical iff
     * their checksums match, which is how the determinism tests and
     * bench compare thread counts cheaply.
     */
    uint64_t checksum = 0;

    /** Exact worst-case privacy loss (analyze_loss cohorts; inf for
     *  the naive baseline). */
    double worst_loss = 0.0;

    /** Whether worst_loss <= loss_multiple * eps (the device's
     *  configured bound). */
    bool ldp = false;

    /** Materialized report matrix (reports_per_node x nodes,
     *  row-major); empty unless CohortConfig::materialize. */
    std::vector<double> matrix;

    /** Streaming-aggregation result; null unless CohortConfig::agg
     *  was enabled for this cohort. */
    std::shared_ptr<CohortAggResult> agg;

    /** True population mean. */
    double trueMean() const { return true_stats.mean(); }

    /** Fleet-aggregate mean estimate over all reports. */
    double estimatedMean() const { return released_stats.mean(); }

    /** One trial's reports (materialized cohorts only). */
    std::vector<double> trialReports(uint32_t trial) const;
};

/** Merged fleet-wide result of one epoch. */
struct FleetReport
{
    /** Per-cohort results, in configuration order. */
    std::vector<CohortResult> cohorts;

    /** Total reports released across cohorts. */
    uint64_t total_reports = 0;

    /** Wall-clock seconds of the parallel section (not part of the
     *  determinism contract). */
    double seconds = 0.0;

    /** Worker threads used. */
    unsigned threads = 0;

    /** Reports per second of the parallel section. */
    double reportsPerSecond() const;

    /**
     * Combined order-independent digest over every cohort's checksum,
     * histogram, moments and counters -- bitwise equal across runs
     * iff the merged reports are.
     */
    uint64_t fingerprint() const;
};

/**
 * Runs fleet epochs across a persistent worker pool with per-worker
 * work-stealing block queues.
 *
 * Scheduling (all of it invisible to the merged result):
 *
 *  - Worker threads are spawned once, before the first epoch's timer
 *    starts, and park between epochs (FleetWorkerPool). PR 3 spawned
 *    and joined threads inside every run(), which cost more than the
 *    bench epoch itself and flattened the scaling curve.
 *  - Each worker owns a contiguous, cache-line-padded queue of block
 *    indices and claims them in adaptive chunks from its own queue --
 *    no shared claim counter, so the common path has zero cross-core
 *    cache-line traffic. A worker that drains its queue steals single
 *    blocks from the fullest-looking victim, which balances ragged
 *    cohorts without perturbing the block-to-slab mapping.
 *  - Per-worker scratch (RNG clones, batch samplers holding a
 *    raw-pointer view of the cohort table, noise rects) persists
 *    across blocks *and epochs*, so the hot loop never allocates and
 *    never touches the shared table's shared_ptr control block.
 *
 * None of this can move a bit of the FleetReport: block -> accumulator
 * slab is a static mapping, every block's content depends only on
 * (master seed, cohort, node id), and the merge order is block index.
 * Work-stealing changes *when* a block runs and on *which* thread --
 * two dimensions the result provably does not depend on.
 */
class FleetRunner
{
  public:
    /** Validates the configuration and enumerates per-cohort sampler
     *  tables (fatal on invalid cohorts, e.g. no valid threshold). */
    explicit FleetRunner(FleetConfig config);

    ~FleetRunner();

    /**
     * Simulate one epoch.
     *
     * @param num_threads Worker threads; 0 selects the hardware
     *        concurrency. The merged result is bit-identical for
     *        every value.
     */
    FleetReport run(unsigned num_threads = 0);

    /** The configuration in effect. */
    const FleetConfig &config() const { return config_; }

    /** std::thread::hardware_concurrency, floored at 1. */
    static unsigned hardwareThreads();

    /**
     * Process-wide test hook: route every block through the per-draw
     * scalar path instead of the batch sampling layer. The merged
     * FleetReport must be bit-identical either way -- that is the
     * batch layer's core contract, and the determinism tests prove it
     * by flipping this switch. Never set in production code.
     */
    static void forceScalarBlocks(bool on);

  private:
    struct CohortPlan;
    struct WorkerScratch;

    FleetConfig config_;
    FleetSeeder seeder_;
    std::vector<CohortPlan> plans_;
    /** Parked helper threads, reused by every epoch. */
    FleetWorkerPool pool_;
    /** Per-worker-slot scratch (RNG clones, batch samplers, rects),
     *  reused across epochs; grown to the largest thread count seen. */
    std::vector<std::unique_ptr<WorkerScratch>> scratch_;
};

} // namespace ulpdp

#endif // ULPDP_FLEET_FLEET_H
