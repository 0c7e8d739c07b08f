/**
 * @file
 * Extension: streaming aggregation layer throughput and accuracy.
 *
 * Three sections:
 *
 *  1. Pure ingest rate, single thread. The fleet hot loop's entire
 *     per-report aggregation cost is one uint64 increment into a
 *     per-block delta buffer plus an amortized per-block flush
 *     (CohortSketch::ingestDelta: span total updates into the slot
 *     array, count-min and quantile sketches). This section replays a
 *     precomputed slot stream through exactly that protocol and
 *     reports sustained reports/second -- the number that must beat
 *     the fleet engine's own emission rate for the collector to keep
 *     pace at line rate (floor gated in CI: >= 2e7/s).
 *
 *  2. Population sweep. Fleets of 1e5 / 1e6 / 1e7 nodes (capped by
 *     --nodes-max) with aggregation on vs off at the full thread
 *     count: end-to-end overhead of running the collector inside the
 *     epoch, post-merge decode latency, sketch memory per node, and
 *     the decoded mean's absolute error against the true population
 *     mean next to the raw released mean's error (the boundary
 *     unbiasing headline: the cohort data are pinned off-center at
 *     data_mean 7.5 so the thresholding clamp actually bites).
 *
 *  3. Determinism. At the smallest population the agg-on fleet runs
 *     at 1, 2 and hw threads plus the forced-scalar path; every
 *     fingerprint (which folds the sketch counters AND the decoded
 *     double bits) must match. A mismatch is a nonzero exit, not a
 *     table footnote.
 *
 * Flags:
 *   --nodes-max N  largest sweep population   (default 10000000)
 *   --reports R    reports per node           (default 2)
 *   --repeats N    measured epochs, best-of   (default 3)
 *   --json PATH    JSON output path           (default BENCH_agg.json)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "agg/sketch.h"
#include "agg/stream.h"
#include "bench_util.h"
#include "common/table.h"
#include "fleet/fleet.h"

namespace {

using namespace ulpdp;

uint64_t
flagValue(int argc, char **argv, const char *flag, uint64_t fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == flag)
            return std::strtoull(argv[i + 1], nullptr, 10);
    }
    return fallback;
}

/** Paper reference device on [0, 10]: the span the fleet sketches. */
FxpMechanismParams
referenceParams()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;
    return p;
}

FleetConfig
makeConfig(uint64_t nodes, uint32_t reports, bool agg_on)
{
    FxpMechanismParams p = referenceParams();
    FleetConfig fc;
    fc.master_seed = 42;
    auto makeCohort = [&](const char *mechanism) {
        CohortConfig c;
        c.name = mechanism;
        c.mechanism_name = mechanism;
        c.params = p;
        c.loss_multiple = 2.0;
        c.nodes = nodes;
        c.reports_per_node = reports;
        // Off-center population: the thresholding clamp piles real
        // mass onto the window-edge atoms, which is the bias the
        // decoder exists to undo.
        c.data_mean = 7.5;
        c.data_mean_set = true;
        c.analyze_loss = false;
        c.agg.enabled = agg_on;
        return c;
    };
    fc.cohorts = {
        makeCohort("thresholding"),
        makeCohort("resampling"),
    };
    return fc;
}

/** Best-of-N measured epochs after one untimed warmup; verifies every
 *  epoch reproduces the warmup fingerprint. */
struct MeasuredRun
{
    FleetReport report;    // last measured epoch (carries agg state)
    double best_rate = 0.0;
    uint64_t fingerprint = 0;
    bool deterministic = true;
};

MeasuredRun
measure(FleetRunner &runner, unsigned threads, uint32_t repeats)
{
    MeasuredRun m;
    FleetReport warm = runner.run(threads);
    m.fingerprint = warm.fingerprint();
    m.best_rate = warm.reportsPerSecond();
    m.report = std::move(warm);
    for (uint32_t r = 0; r < repeats; ++r) {
        FleetReport rep = runner.run(threads);
        m.deterministic =
            m.deterministic && rep.fingerprint() == m.fingerprint;
        m.best_rate = std::max(m.best_rate, rep.reportsPerSecond());
        m.report = std::move(rep);
    }
    return m;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    uint64_t nodes_max =
        flagValue(argc, argv, "--nodes-max", 10000000);
    uint32_t reports = static_cast<uint32_t>(
        flagValue(argc, argv, "--reports", 2));
    uint32_t repeats = static_cast<uint32_t>(std::max<uint64_t>(
        1, flagValue(argc, argv, "--repeats", 3)));
    std::string json_path = bench::jsonPathFromArgs(argc, argv);
    if (json_path.empty())
        json_path = "BENCH_agg.json";

    bench::banner(
        "Extension: streaming aggregation at fleet line rate",
        "Sharded mergeable sketches riding the fleet hot loop; "
        "decode = channel pseudo-inverse.\nDeterminism = sketch "
        "counters and decoded bits identical across thread counts "
        "and batch/scalar paths.");

    unsigned hw = FleetRunner::hardwareThreads();

    // --- 1. pure ingest, single thread ------------------------------
    // The per-worker protocol verbatim: bump one delta cell per
    // report, flush the delta into the sketch when the block
    // completes. Slots are precomputed (a hash spread over the
    // window, heavier toward the middle) so the measurement is the
    // aggregation cost, not an RNG's.
    const size_t kSpan = 869;       // thresholding span, ref. device
    const size_t kBlock = 4096;     // fleet default block_nodes
    const size_t kStream = 1 << 16; // precomputed slot cycle
    agg::AggConfig icfg;
    agg::CohortSketch ingest_sketch(icfg, kSpan, 1, 0.0,
                                    10.0 / 32.0);
    std::vector<uint32_t> slot_stream(kStream);
    for (size_t i = 0; i < kStream; ++i) {
        uint64_t h = agg::mixHash(i);
        // Sum of three sub-fields concentrates mass mid-window, like
        // a real noise PMF, so the flush sees realistic occupancy.
        slot_stream[i] = static_cast<uint32_t>(
            ((h & 0x3ff) + ((h >> 10) & 0x3ff) + ((h >> 20) & 0x3ff)) %
            kSpan);
    }
    std::vector<uint64_t> delta(kSpan, 0);

    const uint64_t kIngestTarget = 1u << 26; // ~67M reports per pass
    double ingest_best = 0.0;
    for (uint32_t r = 0; r < repeats + 1; ++r) { // first pass = warmup
        ingest_sketch.clear();
        auto t0 = std::chrono::steady_clock::now();
        uint64_t done = 0;
        size_t cursor = 0;
        while (done < kIngestTarget) {
            for (size_t i = 0; i < kBlock; ++i) {
                ++delta[slot_stream[cursor]];
                cursor = (cursor + 1) & (kStream - 1);
            }
            ingest_sketch.ingestDelta(delta.data());
            std::fill(delta.begin(), delta.end(), 0);
            done += kBlock;
        }
        auto t1 = std::chrono::steady_clock::now();
        double s = std::chrono::duration<double>(t1 - t0).count();
        double rate = s > 0.0 ? static_cast<double>(done) / s : 0.0;
        if (r > 0)
            ingest_best = std::max(ingest_best, rate);
    }
    std::printf("\npure ingest, 1 thread: %.3g reports/sec "
                "(span %zu, %zu-report blocks, best of %u; CI floor "
                "2e7)\n",
                ingest_best, kSpan, kBlock, repeats);

    // --- 2. population sweep ----------------------------------------
    std::vector<uint64_t> populations;
    for (uint64_t n : {uint64_t{100000}, uint64_t{1000000},
                       uint64_t{10000000}}) {
        if (n <= nodes_max)
            populations.push_back(n);
    }
    if (populations.empty())
        populations.push_back(nodes_max);

    TextTable table;
    table.setHeader({"nodes", "agg-on rep/s", "overhead", "decode us",
                     "B/node", "raw |err|", "decoded |err|",
                     "fingerprint"});

    struct SweepRow
    {
        uint64_t nodes = 0;
        double on_rate = 0.0;
        double off_rate = 0.0;
        double overhead_raw_pct = 0.0;
        double overhead_pct = 0.0;
        bool below_noise = false;
        double ns_per_decode = 0.0;
        uint64_t sketch_bytes = 0;
        double bytes_per_node = 0.0;
        double raw_err = 0.0;
        double decoded_err = 0.0;
        uint64_t fingerprint = 0;
    };
    std::vector<SweepRow> sweep;
    bool deterministic = true;

    for (uint64_t nodes : populations) {
        SweepRow row;
        row.nodes = nodes;
        // Small populations mean millisecond epochs where scheduler
        // noise swamps best-of-3; scale the repeat count so every
        // sweep point measures a comparable amount of work.
        uint32_t reps = repeats * static_cast<uint32_t>(
            std::max<uint64_t>(1, 1000000 / nodes));
        {
            FleetRunner off_runner(makeConfig(nodes, reports, false));
            row.off_rate = measure(off_runner, hw, reps).best_rate;
        }
        FleetRunner runner(makeConfig(nodes, reports, true));
        MeasuredRun on = measure(runner, hw, reps);
        deterministic = deterministic && on.deterministic;
        row.on_rate = on.best_rate;
        row.fingerprint = on.fingerprint;
        row.overhead_raw_pct = row.off_rate > 0.0
            ? (row.off_rate - row.on_rate) / row.off_rate * 100.0
            : 0.0;
        row.below_noise = row.overhead_raw_pct < 0.0;
        row.overhead_pct = std::max(0.0, row.overhead_raw_pct);

        double decode_s = 0.0, raw = 0.0, dec = 0.0;
        size_t agg_cohorts = 0;
        for (const CohortResult &c : on.report.cohorts) {
            if (!c.agg)
                continue;
            ++agg_cohorts;
            // Decode latency as a microbench (best of 32 on the
            // merged sketch), not the single in-epoch sample: a
            // lone ~50 us timing is too noisy to gate on.
            std::vector<uint64_t> totals = c.agg->sketch.slotTotals();
            double best = c.agg->decode_seconds;
            for (int i = 0; i < 32; ++i) {
                auto d0 = std::chrono::steady_clock::now();
                c.agg->decoder->decode(totals, c.agg->input_value0,
                                       c.agg->delta);
                auto d1 = std::chrono::steady_clock::now();
                best = std::min(
                    best,
                    std::chrono::duration<double>(d1 - d0).count());
            }
            decode_s += best;
            row.sketch_bytes += c.agg->sketch.bytes();
            double truth = c.trueMean();
            raw += std::abs(c.released_stats.mean() - truth);
            dec += std::abs(c.agg->decoded.mean - truth);
        }
        if (agg_cohorts > 0) {
            row.ns_per_decode =
                decode_s * 1e9 / static_cast<double>(agg_cohorts);
            row.raw_err = raw / static_cast<double>(agg_cohorts);
            row.decoded_err = dec / static_cast<double>(agg_cohorts);
        }
        row.bytes_per_node =
            static_cast<double>(row.sketch_bytes) /
            static_cast<double>(nodes);
        sweep.push_back(row);

        char on_s[32], ovh[32], dus[32], bpn[32], rerr[32], derr[32],
            fp[32];
        std::snprintf(on_s, sizeof on_s, "%.3g", row.on_rate);
        std::snprintf(ovh, sizeof ovh, "%.2f%%%s", row.overhead_pct,
                      row.below_noise ? "*" : "");
        std::snprintf(dus, sizeof dus, "%.1f",
                      row.ns_per_decode / 1e3);
        std::snprintf(bpn, sizeof bpn, "%.4f", row.bytes_per_node);
        std::snprintf(rerr, sizeof rerr, "%.5f", row.raw_err);
        std::snprintf(derr, sizeof derr, "%.5f", row.decoded_err);
        std::snprintf(fp, sizeof fp, "%016llx",
                      static_cast<unsigned long long>(
                          row.fingerprint));
        table.addRow({std::to_string(nodes), on_s, ovh, dus, bpn,
                      rerr, derr, fp});
    }
    std::printf("\n2 cohorts (thresholding + resampling) x %u "
                "reports/node, data mean 7.5 on [0, 10], %u threads, "
                "best of %u:\n\n", reports, hw, repeats);
    table.print(std::cout);
    std::printf("\n* = raw overhead reading negative (below the "
                "host's noise floor), clamped to 0.\n'raw |err|' = "
                "|released mean - true mean|; 'decoded |err|' = same "
                "for the channel-inverted\ndecode. The raw mean "
                "carries a systematic clamp/truncation bias; the "
                "decode is\nunbiased but pays inversion variance, so "
                "in noise-dominated regimes the two are\ncomparable "
                "(the biased regime, data pinned at the range edge, "
                "is locked in by the\nAggFleet.BoundaryUnbiasing "
                "regression test). Sketch memory is constant in the\n"
                "population, so B/node falls as 1/n.\n");

    // --- 3. determinism across thread counts and paths --------------
    {
        FleetRunner runner(
            makeConfig(populations.front(), reports, true));
        uint64_t fp1 = runner.run(1).fingerprint();
        uint64_t fp2 = runner.run(2).fingerprint();
        uint64_t fph = runner.run(hw).fingerprint();
        FleetRunner::forceScalarBlocks(true);
        uint64_t fps = runner.run(hw).fingerprint();
        FleetRunner::forceScalarBlocks(false);
        bool same = fp1 == fp2 && fp1 == fph && fp1 == fps;
        deterministic = deterministic && same;
        std::printf("\nagg fingerprints at 1/2/%u threads + forced "
                    "scalar: %016llx %016llx %016llx %016llx -> %s\n",
                    hw, static_cast<unsigned long long>(fp1),
                    static_cast<unsigned long long>(fp2),
                    static_cast<unsigned long long>(fph),
                    static_cast<unsigned long long>(fps),
                    same ? "PASS" : "FAIL");
    }

    bench::JsonWriter json;
    json.beginObject();
    json.field("bench", "streaming aggregation");
    json.field("reports_per_node", reports);
    json.field("cohorts", uint64_t{2});
    json.field("hardware_threads", hw);
    json.field("measured_epochs_per_point", uint64_t{repeats});
    json.field("ingest_span", static_cast<uint64_t>(kSpan));
    json.field("ingest_block_reports", static_cast<uint64_t>(kBlock));
    json.field("ingest_reports_per_second_1t", ingest_best);
    json.field("bit_exact_determinism", deterministic);
    json.beginArray("sweep");
    for (const SweepRow &row : sweep) {
        json.beginObject();
        json.field("nodes", row.nodes);
        json.field("reports_per_second", row.on_rate);
        json.field("agg_off_reports_per_second", row.off_rate);
        json.field("agg_overhead_pct", row.overhead_pct);
        json.field("agg_overhead_raw_pct", row.overhead_raw_pct);
        json.field("agg_overhead_below_noise", row.below_noise);
        json.field("ns_per_decode", row.ns_per_decode);
        json.field("sketch_bytes", row.sketch_bytes);
        json.field("sketch_bytes_per_node", row.bytes_per_node);
        json.field("raw_mean_abs_error", row.raw_err);
        json.field("decoded_mean_abs_error", row.decoded_err);
        char fp[32];
        std::snprintf(fp, sizeof fp, "%016llx",
                      static_cast<unsigned long long>(
                          row.fingerprint));
        json.field("fingerprint", fp);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    if (json.writeFile(json_path))
        std::printf("\nJSON written to %s\n", json_path.c_str());

    if (!deterministic) {
        std::printf("\nFAIL: sketch state or decoded estimates "
                    "differ across epochs, thread counts or "
                    "batch/scalar paths.\n");
        return 1;
    }
    std::printf("\nTakeaway: the collector's state is integer "
                "counters end to end, so sharding is free of both "
                "races and rounding -- the decode sees the same bits "
                "whatever the thread count, and the channel "
                "inversion trades the raw stream's systematic clamp "
                "bias for plain 1/sqrt(n) variance.\n");
    return 0;
}
