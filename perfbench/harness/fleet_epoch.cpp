/**
 * @file
 * fleet-epoch: one single-threaded FleetRunner::run(1) epoch of the
 * population pipeline (paper Tables II-V, Fig. 15) per op.
 *
 * Two cohorts on the paper reference device (range [0, 10], eps 0.5,
 * Bu = 17, Delta = d/32, n = 2), one thresholding and one resampling,
 * kNodes nodes x kReports reports each. The per-node budget affords
 * kFresh of the kReports reports at the flat n*eps charge, so a fixed
 * share of reports replays the node's cached report. Streaming
 * aggregation and a durable epoch ledger (NOR flash + BudgetLedger)
 * are on. Node readings come from data/generators.
 *
 * One thread, not two: on a shared 4-core host, 2-thread epochs of the
 * same length had a 4x wider run-to-run spread of op_ms_tail (IQR /
 * median 0.17 against 0.044 over 6 alternating runs), most likely
 * from the two cross-core wake-ups each epoch pays to dispatch and
 * join the parked pool. The untimed reference epoch runs on 2 threads
 * instead, so every op still checks thread-count independence.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/logging.h"
#include "common/parallel_for.h"
#include "core/budget_ledger.h"
#include "core/mechanism_registry.h"
#include "data/generators.h"
#include "fleet/fleet.h"
#include "rng/batch_sampler.h"
#include "rng/fxp_laplace.h"
#include "rng/fxp_laplace_pmf.h"
#include "rng/taus_bank.h"
#include "sim/nor_flash.h"

namespace perfbench {
namespace {

using namespace ulpdp;

constexpr uint64_t kNodes = 400000;
constexpr uint32_t kReports = 16;
constexpr uint32_t kFresh = 12;
constexpr double kEpsilon = 0.5;
constexpr double kLossMultiple = 2.0;
constexpr unsigned kThreads = 1;
constexpr unsigned kReferenceThreads = 2;
constexpr const char *kMechanisms[2] = {"thresholding", "resampling"};

/** Per-cohort inputs of the replayed rng layers. */
struct CohortReplay
{
    std::vector<uint64_t> seeds;
    std::vector<BatchSampler::Window> windows;
    std::shared_ptr<const LaplaceSampleTable> table;
    int uniform_bits = 0;
    int64_t sat_index = 0;
    bool truncated = false;
};

class FleetEpoch : public Workload
{
  public:
    explicit FleetEpoch(uint64_t seed)
        : master_(mixSeed(seed, 1)),
          flash_(FlashGeometry{8, 4096})
    {
        values_[0] = gen::clippedGaussian(kNodes, 6.2, 1.8, 0.0, 10.0,
                                          mixSeed(seed, 2));
        values_[1] = gen::gaussianMixture(kNodes, 2.5, 0.8, 7.0, 1.5,
                                          0.35, 0.0, 10.0,
                                          mixSeed(seed, 3));
        BudgetLedgerConfig lc;
        lc.initial_budget = 1e18;
        lc.max_record_loss = 1e7;
        ledger_ = std::make_unique<BudgetLedger>(flash_, lc);
        if (!ledger_->mount())
            fatal("fleet-epoch: epoch ledger did not mount");
    }

    unsigned threads() const override { return kThreads; }

    double
    setup(Tracer *tr) override
    {
        FleetConfig cfg = config();
        runner_.reset();
        FxpLaplacePmf::clearSharedCache();
        Clock::time_point t0 = Clock::now();
        runner_ = std::make_unique<FleetRunner>(std::move(cfg));
        Clock::time_point t1 = Clock::now();
        if (tr != nullptr) {
            tr->record("fleet.plan", -1, 0, t0, t1);
            plan_ms_.push_back(secondsBetween(t0, t1) * 1e3);
        }
        return secondsBetween(t0, t1);
    }

    std::string
    prepare() override
    {
        FleetReport ref = runner_->run(kReferenceThreads);
        reference_ = ref.fingerprint();
        FleetReport warm = runner_->run(kThreads);
        if (warm.fingerprint() != reference_)
            return "warm-up epoch differs from the 2-thread reference";
        std::printf("# fleet-epoch fingerprint %016llx\n",
                    static_cast<unsigned long long>(reference_));
        return "";
    }

    uint64_t
    op(Tracer *tr, int root, uint64_t id) override
    {
        warnings_before_ = warningCount();
        Clock::time_point t0 = Clock::now();
        last_ = runner_->run(kThreads);
        if (tr != nullptr) {
            epoch_span_ = tr->record("fleet.epoch", root, id, t0,
                                     Clock::now());
        }
        return last_.total_reports;
    }

    std::string
    verify() override
    {
        if (last_.fingerprint() != reference_)
            return "fingerprint differs from the 2-thread reference";
        for (const CohortResult &c : last_.cohorts) {
            if (!c.agg || c.agg->dropped != 0)
                return "agg dropped reports in cohort " + c.name;
        }
        if (ledger_->halted())
            return "epoch ledger halted";
        if (warningCount() != warnings_before_)
            return "library warned during the epoch";
        return "";
    }

    void replay(Tracer &tr, int root, uint64_t id) override;
    void layers(MetricMap &out) const override;

  private:
    FleetConfig
    config()
    {
        FleetConfig fc;
        fc.master_seed = master_;
        fc.epoch_ledger = ledger_.get();
        for (int c = 0; c < 2; ++c) {
            CohortConfig cc;
            cc.name = kMechanisms[c];
            cc.mechanism_name = kMechanisms[c];
            cc.params = referenceParams();
            cc.loss_multiple = kLossMultiple;
            cc.reports_per_node = kReports;
            cc.values = values_[c];
            // Flat charge n*eps per fresh report: the budget affords
            // exactly kFresh of them.
            cc.budget_per_node = kFresh * kLossMultiple * kEpsilon;
            cc.agg.enabled = true;
            fc.cohorts.push_back(std::move(cc));
        }
        return fc;
    }

    static FxpMechanismParams
    referenceParams()
    {
        FxpMechanismParams p;
        p.range = SensorRange(0.0, 10.0);
        p.epsilon = kEpsilon;
        p.uniform_bits = 17;
        p.delta = p.range.length() / 32.0;
        return p;
    }

    void buildReplayInputs();

    uint64_t master_;
    std::vector<double> values_[2];
    NorFlashModel flash_;
    std::unique_ptr<BudgetLedger> ledger_;
    std::unique_ptr<FleetRunner> runner_;
    uint64_t reference_ = 0;
    uint64_t warnings_before_ = 0;
    FleetReport last_;
    int epoch_span_ = -1;

    // Traced-run state.
    CohortReplay replay_[2];
    bool replay_ready_ = false;
    bool counted_ = false;
    std::vector<double> plan_ms_, epoch_ms_, self_ms_, seed_ns_,
        bank_ns_, rect_ns_, ingest_ns_, merge_us_, decode_us_;
    double fresh_ratio_ = 0.0, samples_per_fresh_ = 0.0,
           dropped_ = 0.0, decode_abs_err_ = 0.0;
};

void
FleetEpoch::buildReplayInputs()
{
    FleetSeeder seeder(master_);
    for (uint32_t c = 0; c < 2; ++c) {
        CohortReplay &r = replay_[c];
        MechanismSpec spec;
        spec.params = referenceParams();
        spec.loss_multiple = kLossMultiple;
        MechanismLowering low =
            MechanismRegistry::instance().at(kMechanisms[c]).lower(spec);
        FxpLaplaceRng proto(low.params.rngConfig(), 1);
        r.table = proto.sharedTable();
        r.uniform_bits = low.params.uniform_bits;
        r.sat_index = proto.quantizer().maxIndex();
        r.truncated = low.truncated;
        double delta = proto.quantizer().delta();
        int64_t lo = std::llround(low.params.range.lo / delta);
        int64_t hi = std::llround(low.params.range.hi / delta);
        r.seeds.resize(kNodes);
        if (r.truncated)
            r.windows.resize(kNodes);
        for (uint64_t n = 0; n < kNodes; ++n) {
            r.seeds[n] = seeder.nodeSeed(c, n);
            if (r.truncated) {
                int64_t xi = std::clamp<int64_t>(
                    std::llround(values_[c][n] / delta), lo, hi);
                r.windows[n] = {lo - low.threshold_index - xi,
                                hi + low.threshold_index - xi};
            }
        }
    }
    replay_ready_ = true;
}

/** Run body over [0, groups) of 16-node groups on kThreads threads and
 *  return the wall seconds. */
template <typename Body>
double
timedGroups(uint64_t groups, Body body)
{
    Clock::time_point t0 = Clock::now();
    parallelFor(0, static_cast<int64_t>(groups), kThreads, 64,
                [&](int64_t lo, int64_t hi) { body(lo, hi); });
    return secondsBetween(t0, Clock::now());
}

void
FleetEpoch::replay(Tracer &tr, int root, uint64_t id)
{
    if (!replay_ready_)
        buildReplayInputs();
    constexpr size_t W = TausBank::kMaxLanes;
    const uint64_t groups = (kNodes + W - 1) / W;
    std::atomic<uint64_t> sink{0};
    auto span = [&](const char *name, double s) {
        Clock::time_point now = Clock::now();
        tr.record(name, root, id,
                  now - std::chrono::nanoseconds(
                            static_cast<int64_t>(s * 1e9)),
                  now, 1, -1, true);
    };

    // Seed derivation: one FleetSeeder::nodeSeed per node.
    FleetSeeder seeder(master_);
    double seed_s = 0.0;
    for (uint32_t c = 0; c < 2; ++c) {
        seed_s += timedGroups(groups, [&](int64_t lo, int64_t hi) {
            uint64_t acc = 0;
            for (uint64_t n = lo * W;
                 n < std::min<uint64_t>(hi * W, kNodes); ++n)
                acc ^= seeder.nodeSeed(c, n);
            sink ^= acc;
        });
    }
    span("fleet.seed", seed_s);

    // Bank step: seed 16 lanes, then one word per lane per fresh
    // report (the rect's URNG work without the table lookups).
    double bank_s = 0.0;
    for (uint32_t c = 0; c < 2; ++c) {
        const CohortReplay &r = replay_[c];
        bank_s += timedGroups(groups, [&](int64_t lo, int64_t hi) {
            uint32_t words[W];
            uint64_t acc = 0;
            TausBank bank;
            for (int64_t g = lo; g < hi; ++g) {
                size_t lanes = std::min<uint64_t>(W, kNodes - g * W);
                bank.seed(&r.seeds[g * W], lanes);
                for (uint32_t t = 0; t < kFresh; ++t) {
                    bank.nextWords(words);
                    acc += words[0];
                }
            }
            sink ^= acc;
        });
    }
    span("rng.bank", bank_s);

    // Rect: the batch sampler on the cohort's own table, windows and
    // node seeds (thresholding: plain rect; resampling: truncated).
    double rect_s = 0.0;
    for (uint32_t c = 0; c < 2; ++c) {
        const CohortReplay &r = replay_[c];
        rect_s += timedGroups(groups, [&](int64_t lo, int64_t hi) {
            BatchSampler bs(r.table, r.uniform_bits, r.sat_index);
            std::vector<int64_t> rect(W * kFresh);
            uint64_t acc = 0;
            for (int64_t g = lo; g < hi; ++g) {
                size_t lanes = std::min<uint64_t>(W, kNodes - g * W);
                bs.seedLanes(&r.seeds[g * W], lanes);
                bool ok = r.truncated
                    ? bs.sampleTruncatedRect(&r.windows[g * W],
                                             rect.data(), kFresh)
                    : bs.sampleRect(rect.data(), kFresh);
                acc += static_cast<uint64_t>(rect[0]) + ok;
            }
            sink ^= acc;
        });
    }
    span("rng.rect", rect_s);

    // Agg: ingest one delta per 1024-node block (the epoch's merged
    // slot histogram split evenly over its blocks), merge the
    // per-worker shards, decode.
    const uint64_t blocks = (kNodes + 1023) / 1024;
    double ingest_s = 0.0, merge_s = 0.0, decode_s = 0.0;
    uint64_t ingested = 0;
    for (const CohortResult &c : last_.cohorts) {
        const agg::CohortSketch &merged = c.agg->sketch;
        std::vector<uint64_t> delta = merged.slotTotals();
        for (uint64_t &d : delta)
            d /= blocks;
        for (uint64_t d : delta)
            ingested += d * blocks;
        // One shard per worker, each ingesting its share of blocks.
        std::vector<agg::CohortSketch> shards(kThreads, merged);
        for (agg::CohortSketch &s : shards)
            s.clear();
        Clock::time_point i0 = Clock::now();
        parallelFor(0, kThreads, kThreads, 1, [&](int64_t w, int64_t) {
            for (uint64_t b = w; b < blocks; b += kThreads)
                shards[w].ingestDelta(delta.data());
        });
        ingest_s += secondsBetween(i0, Clock::now());

        agg::CohortSketch dst = merged;
        dst.clear();
        Clock::time_point m0 = Clock::now();
        for (const agg::CohortSketch &s : shards)
            dst.merge(s);
        merge_s += secondsBetween(m0, Clock::now());

        Clock::time_point d0 = Clock::now();
        agg::DecodedFrequencies dec = c.agg->decoder->decode(
            merged.slotTotals(), c.agg->input_value0, c.agg->delta);
        decode_s += secondsBetween(d0, Clock::now());
        sink ^= static_cast<uint64_t>(dec.total);
    }
    span("agg.ingest", ingest_s);
    span("agg.merge", merge_s);
    span("agg.decode", decode_s);

    const double nodes = 2.0 * kNodes;
    const double draws = nodes * kFresh;
    double epoch_s = tr.seconds(epoch_span_);
    epoch_ms_.push_back(epoch_s * 1e3);
    self_ms_.push_back(
        (epoch_s - seed_s - rect_s - ingest_s - merge_s - decode_s) *
        1e3);
    // Per-item costs are thread-time: wall x threads / items.
    seed_ns_.push_back(seed_s * kThreads / nodes * 1e9);
    bank_ns_.push_back(bank_s * kThreads / draws * 1e9);
    rect_ns_.push_back(rect_s * kThreads / draws * 1e9);
    ingest_ns_.push_back(ingest_s * kThreads /
                         static_cast<double>(ingested) * 1e9);
    merge_us_.push_back(merge_s * 1e6);
    decode_us_.push_back(decode_s * 1e6);
    if (sink.load() == 0x5eed)
        std::printf("# (sink)\n");

    if (!counted_) {
        uint64_t fresh = 0, reports = 0, samples = 0, dropped = 0;
        double err = 0.0;
        for (const CohortResult &c : last_.cohorts) {
            fresh += c.fresh_reports;
            reports += c.reports;
            samples += c.samples_drawn;
            dropped += c.agg->dropped;
            err += std::abs(c.agg->decoded.mean - c.trueMean());
        }
        fresh_ratio_ = static_cast<double>(fresh) / reports;
        samples_per_fresh_ = static_cast<double>(samples) / fresh;
        dropped_ = static_cast<double>(dropped);
        decode_abs_err_ = err / last_.cohorts.size();
        counted_ = true;
    }
}

void
FleetEpoch::layers(MetricMap &out) const
{
    out["fleet.plan_ms"] = {median(plan_ms_), "ms"};
    out["fleet.epoch_ms"] = {median(epoch_ms_), "ms"};
    out["fleet.self_ms"] = {median(self_ms_), "ms"};
    out["fleet.seed_ns_per_node"] = {median(seed_ns_), "ns"};
    out["rng.bank_ns_per_word"] = {median(bank_ns_), "ns"};
    out["rng.rect_ns_per_draw"] = {median(rect_ns_), "ns"};
    out["agg.ingest_ns_per_report"] = {median(ingest_ns_), "ns"};
    out["agg.merge_us"] = {median(merge_us_), "us"};
    out["agg.decode_us"] = {median(decode_us_), "us"};
    out["fleet.fresh_ratio"] = {fresh_ratio_, "ratio"};
    out["fleet.samples_per_fresh"] = {samples_per_fresh_, "ratio"};
    out["agg.dropped"] = {dropped_, "count"};
    out["agg.decode_abs_err"] = {decode_abs_err_, "abs"};
}

} // namespace

std::unique_ptr<Workload>
makeFleetEpoch(uint64_t seed)
{
    return std::make_unique<FleetEpoch>(seed);
}

} // namespace perfbench
