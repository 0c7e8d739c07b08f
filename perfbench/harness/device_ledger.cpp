/**
 * @file
 * device-ledger: one single-device session per op (paper Fig. 11,
 * Algorithm 1, with the durable budget ledger).
 *
 * A session first mounts the flash images the previous session left,
 * so the ledger's recovery scan reads a non-empty journal. The same
 * seeded reading stream then goes through two nodes, one reading at a
 * time:
 *
 *  - a provisioned thresholding DP-Box (DpBoxDriver::noise), its
 *    ledger attached with DpBox::attachLedger;
 *  - a resampling software node (BudgetController::request) with its
 *    ledger attached and the default table scrub period.
 *
 * Both nodes refill their budget every kPeriod requests and can afford
 * about kFreshShare of them, so a fixed share replays the cache. Every
 * spend is journaled before its output leaves the node; the session
 * ends with a checkpoint on each ledger. Each op holds a whole number
 * of refill periods, so every session starts from the same budget
 * phase.
 */

#include <cstdio>
#include <optional>

#include "bench.h"
#include "common/logging.h"
#include "core/budget.h"
#include "core/budget_ledger.h"
#include "data/generators.h"
#include "dpbox/driver.h"
#include "dpbox/provisioning.h"
#include "sim/nor_flash.h"

namespace perfbench {
namespace {

using namespace ulpdp;

constexpr size_t kReadings = 49152;
constexpr uint64_t kPeriod = 64;
constexpr double kFreshShare = 0.75;
/** Device cycles per DpBoxDriver::noise on thresholding silicon: the
 *  sensor-value write plus the 2-cycle noising latency. */
constexpr uint64_t kCyclesPerRequest = 3;
const FlashGeometry kGeometry{16, 4096};
const SensorRange kRange(0.0, 10.0);

static_assert(kReadings % kPeriod == 0,
              "a session must hold whole refill periods");

/** One node's ledger: its flash image outlives every session. */
struct Journal
{
    NorFlashModel flash{kGeometry};
    BudgetLedgerConfig config;
    std::unique_ptr<BudgetLedger> ledger;
    double spent_at_mount = 0.0;
    LedgerStats at_mount;
};

class DeviceLedger : public Workload
{
  public:
    explicit DeviceLedger(uint64_t seed) : seed_(seed)
    {
        readings_ = gen::gaussianMixture(kReadings, 3.0, 1.2, 7.5, 1.0,
                                         0.6, kRange.lo, kRange.hi,
                                         mixSeed(seed, 11));
    }

    unsigned threads() const override { return 1; }

    double setup(Tracer *tr) override;
    std::string prepare() override;
    uint64_t op(Tracer *tr, int root, uint64_t id) override;
    std::string verify() override;
    void replay(Tracer &tr, int root, uint64_t id) override;
    void layers(MetricMap &out) const override;

  private:
    /** Loss the DP-Box charges for raw output @p out (chargeBudget's
     *  segment rule, recomputed here as an independent check). */
    double boxLoss(int64_t out) const;

    bool mount(Journal &j);

    uint64_t seed_;
    std::vector<double> readings_;
    ProvisioningPlan plan_;
    double box_budget_ = 0.0;
    std::unique_ptr<DpBoxDriver> driver_;
    std::unique_ptr<BudgetController> ctrl_;
    Journal box_j_;
    Journal ctrl_j_;

    // Per-op observations (checked by verify()).
    std::string failure_;
    double box_charged_ = 0.0;
    double ctrl_charged_ = 0.0;
    uint64_t ctrl_hits_ = 0;
    uint64_t box_cycles_ = 0;
    std::vector<double> box_charges_, ctrl_charges_;
    double mount_s_ = 0.0, checkpoint_s_ = 0.0;
    CallAccumulator noise_acc_, request_acc_;

    // Traced-run state.
    bool counted_ = false;
    std::vector<double> provision_ms_, request_ns_, noise_ns_,
        mount_ms_, checkpoint_us_, append_us_, table_ns_, scrub_us_;
    double replay_ratio_ = 0.0, cycles_per_report_ = 0.0,
           bytes_per_spend_ = 0.0, rotations_per_1k_ = 0.0;
};

double
DeviceLedger::setup(Tracer *tr)
{
    driver_.reset();
    ctrl_.reset();
    box_j_.ledger.reset();
    ctrl_j_.ledger.reset();
    Clock::time_point t0 = Clock::now();

    // Thresholding DP-Box, provisioned from a privacy intent.
    PrivacyIntent intent;
    intent.range = kRange;
    intent.epsilon = 0.5;
    intent.loss_multiple = 2.0;
    intent.kind = RangeControl::Thresholding;
    intent.budget = 1.0; // enables the per-segment budget hardware
    intent.uniform_bits = 17;
    plan_ = Provisioner::plan(intent);
    Clock::time_point tp = Clock::now();
    if (!Provisioner::verify(plan_))
        fatal("device-ledger: provisioning plan failed verification");
    plan_.device.seed = mixSeed(seed_, 12);
    box_budget_ =
        kFreshShare * kPeriod * plan_.device.segments.front().loss;
    driver_ = std::make_unique<DpBoxDriver>(plan_.device);
    driver_->initialize(box_budget_, kPeriod * kCyclesPerRequest);
    driver_->configure(plan_.effective_epsilon, kRange);
    driver_->setThresholding(true);

    // Resampling software node with Fig. 8 loss segments.
    FxpMechanismParams p;
    p.range = kRange;
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.delta = kRange.length() / 32.0;
    p.seed = mixSeed(seed_, 13);
    ThresholdCalculator calc(p);
    BudgetControllerConfig cc;
    cc.kind = RangeControl::Resampling;
    cc.segments = LossSegments::compute(calc, RangeControl::Resampling,
                                        {1.5, 2.0});
    cc.initial_budget = kFreshShare * kPeriod * cc.segments.front().loss;
    cc.replenish_period = kPeriod;
    ctrl_ = std::make_unique<BudgetController>(p, cc);
    ctrl_->rng().table(); // the sampler table build

    // Format both flash images.
    box_j_.flash = NorFlashModel(kGeometry);
    box_j_.config.initial_budget = box_budget_;
    box_j_.config.max_record_loss = plan_.device.segments.back().loss;
    ctrl_j_.flash = NorFlashModel(kGeometry);
    ctrl_j_.config.initial_budget = cc.initial_budget;
    ctrl_j_.config.max_record_loss = cc.segments.back().loss;
    if (!mount(box_j_) || !mount(ctrl_j_))
        fatal("device-ledger: formatting a blank flash image failed");

    Clock::time_point t1 = Clock::now();
    if (tr != nullptr) {
        int s = tr->record("device.setup", -1, 0, t0, t1);
        tr->record("dpbox.provision", s, 0, t0, tp);
        provision_ms_.push_back(secondsBetween(t0, tp) * 1e3);
    }
    return secondsBetween(t0, t1);
}

bool
DeviceLedger::mount(Journal &j)
{
    j.ledger = std::make_unique<BudgetLedger>(j.flash, j.config);
    bool ok = j.ledger->mount();
    j.spent_at_mount = j.ledger->spentLifetime();
    j.at_mount = j.ledger->stats();
    return ok;
}

std::string
DeviceLedger::prepare()
{
    // Two untimed sessions: the journals wrap every erase block, so
    // each measured mount scans a full, steady-state image.
    for (int i = 0; i < 2; ++i) {
        op(nullptr, -1, 0);
        std::string why = verify();
        if (!why.empty())
            return "warm-up session: " + why;
    }
    return "";
}

double
DeviceLedger::boxLoss(int64_t out) const
{
    const DpBox &box = driver_->device();
    int64_t ext = 0;
    if (out < box.rangeLoRaw())
        ext = box.rangeLoRaw() - out;
    else if (out > box.rangeHiRaw())
        ext = out - box.rangeHiRaw();
    for (const BudgetSegment &seg : plan_.device.segments) {
        if (ext <= seg.threshold_index)
            return seg.loss;
    }
    return plan_.device.segments.back().loss;
}

uint64_t
DeviceLedger::op(Tracer *tr, int root, uint64_t id)
{
    failure_.clear();
    box_charged_ = ctrl_charged_ = 0.0;
    box_charges_.clear();
    ctrl_charges_.clear();
    noise_acc_ = CallAccumulator{};
    request_acc_ = CallAccumulator{};
    auto fail = [&](const char *why) {
        if (failure_.empty())
            failure_ = why;
    };

    Clock::time_point m0 = Clock::now();
    if (!mount(box_j_) || !mount(ctrl_j_))
        fail("ledger mount was unrecoverable");
    Clock::time_point m1 = Clock::now();
    mount_s_ = secondsBetween(m0, m1);
    if (tr != nullptr)
        tr->record("ledger.mount", root, id, m0, m1, 2);
    DpBox &box = driver_->device();
    box.attachLedger(box_j_.ledger.get());
    ctrl_->attachLedger(ctrl_j_.ledger.get());
    if (!ctrl_->restoreFromLedger())
        fail("controller could not restore from its ledger");

    const uint64_t hits0 = ctrl_->cacheHits();
    const uint64_t cycles0 = box.cycles();
    std::optional<double> box_cache;
    for (double x : readings_) {
        // DP-Box: fresh iff the device did not replay its cache.
        const uint64_t box_hits = box.stats().cache_hits;
        const uint64_t resamples = box.stats().resamples;
        Clock::time_point a = tr ? Clock::now() : Clock::time_point{};
        DpBoxResult r = driver_->noise(x);
        if (tr != nullptr)
            noise_acc_.add(a, Clock::now());
        if (r.latency_cycles != 2 + (box.stats().resamples - resamples))
            fail("DP-Box latency is not 2 cycles plus resamples");
        if (box.stats().cache_hits == box_hits) {
            double loss = boxLoss(box.output());
            if (box.remainingBudget() < -1e-12)
                fail("DP-Box released a fresh output it could not "
                     "afford");
            box_charged_ += loss;
            box_cache = r.value;
            if (tr != nullptr)
                box_charges_.push_back(loss);
        }

        // Software node: Algorithm 1 with a durable journal.
        const double before = ctrl_->remainingBudget();
        Clock::time_point b = tr ? Clock::now() : Clock::time_point{};
        BudgetResponse resp = ctrl_->request(x);
        if (tr != nullptr)
            request_acc_.add(b, Clock::now());
        if (!resp.from_cache) {
            if (!budgetCovers(before, resp.charged))
                fail("controller released a fresh output after its "
                     "budget was exhausted");
            ctrl_charged_ += resp.charged;
            if (tr != nullptr)
                ctrl_charges_.push_back(resp.charged);
        }
        ctrl_->advanceTime(1);
    }
    ctrl_hits_ = ctrl_->cacheHits() - hits0;
    box_cycles_ = box.cycles() - cycles0;

    Clock::time_point c0 = Clock::now();
    bool ok = ctrl_->checkpointToLedger() &&
              box_j_.ledger->commitCheckpoint(box.remainingBudget(),
                                              box_cache);
    Clock::time_point c1 = Clock::now();
    checkpoint_s_ = secondsBetween(c0, c1);
    if (!ok)
        fail("session checkpoint was not committed");
    if (tr != nullptr) {
        noise_acc_.flush(*tr, "dpbox.noise", root, id);
        request_acc_.flush(*tr, "budget.request", root, id);
        tr->record("ledger.checkpoint", root, id, c0, c1, 2);
    }
    return 2 * readings_.size();
}

std::string
DeviceLedger::verify()
{
    if (!failure_.empty())
        return failure_;
    if (ctrl_->faultStats().ledger_append_failures != 0 ||
        driver_->faultStats().ledger_append_failures != 0)
        return "ledger append failures";
    if (ctrl_->faultLatched() || driver_->device().faultLatched())
        return "a node latched fail-secure";
    // Exact: the ledger charged the same doubles in the same order.
    if (box_j_.ledger->spentLifetime() - box_j_.spent_at_mount <
        box_charged_ - 1e-9)
        return "DP-Box ledger recorded less than was released";
    if (ctrl_j_.ledger->spentLifetime() - ctrl_j_.spent_at_mount <
        ctrl_charged_ - 1e-9)
        return "controller ledger recorded less than was released";
    return "";
}

void
DeviceLedger::replay(Tracer &tr, int root, uint64_t id)
{
    // Table draws and scrubs on a copy of the controller's sampler
    // (same table, same URNG state), as many as the session made.
    FxpLaplaceRng rng = ctrl_->rng();
    int64_t acc = 0;
    Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < readings_.size(); ++i)
        acc += rng.sampleIndexFast();
    Clock::time_point t1 = Clock::now();
    const size_t scrubs =
        readings_.size() / ctrl_->config().table_scrub_period;
    for (size_t i = 0; i < scrubs; ++i)
        acc += rng.verifyTableIntegrity();
    Clock::time_point t2 = Clock::now();
    tr.record("rng.table", root, id, t0, t1, readings_.size(), -1, true);
    tr.record("rng.scrub", root, id, t1, t2, scrubs, -1, true);
    table_ns_.push_back(secondsBetween(t0, t1) / readings_.size() * 1e9);
    scrub_us_.push_back(secondsBetween(t1, t2) / scrubs * 1e6);

    // Journal appends: the session's own charges, in order, on copies
    // of the images it left.
    double append_s = 0.0;
    size_t appends = 0;
    for (auto [j, charges] : {std::pair{&box_j_, &box_charges_},
                              std::pair{&ctrl_j_, &ctrl_charges_}}) {
        NorFlashModel copy = j->flash;
        BudgetLedger ledger(copy, j->config);
        ledger.mount();
        Clock::time_point a0 = Clock::now();
        for (double loss : *charges)
            acc += ledger.journalSpend(loss);
        Clock::time_point a1 = Clock::now();
        tr.record("ledger.append", root, id, a0, a1, charges->size(), -1,
                  true);
        append_s += secondsBetween(a0, a1);
        appends += charges->size();
    }
    append_us_.push_back(append_s / appends * 1e6);
    if (acc == 0x5eed)
        std::printf("# (sink)\n");

    request_ns_.push_back(request_acc_.nsPerCall());
    noise_ns_.push_back(noise_acc_.nsPerCall());
    mount_ms_.push_back(mount_s_ / 2 * 1e3);
    checkpoint_us_.push_back(checkpoint_s_ / 2 * 1e6);

    if (!counted_) {
        const double reports = static_cast<double>(readings_.size());
        replay_ratio_ = static_cast<double>(ctrl_hits_) / reports;
        cycles_per_report_ = static_cast<double>(box_cycles_) / reports;
        uint64_t bytes = 0, spends = 0, rotations = 0;
        for (const Journal *j : {&box_j_, &ctrl_j_}) {
            const LedgerStats &s = j->ledger->stats();
            bytes += s.journal_bytes_written -
                     j->at_mount.journal_bytes_written;
            spends += s.spends_journaled - j->at_mount.spends_journaled;
            rotations += s.rotations - j->at_mount.rotations;
        }
        bytes_per_spend_ = static_cast<double>(bytes) / spends;
        rotations_per_1k_ = 1e3 * static_cast<double>(rotations) / spends;
        counted_ = true;
    }
}

void
DeviceLedger::layers(MetricMap &out) const
{
    out["budget.request_ns"] = {median(request_ns_), "ns"};
    out["dpbox.noise_ns"] = {median(noise_ns_), "ns"};
    out["dpbox.provision_ms"] = {median(provision_ms_), "ms"};
    out["ledger.mount_ms"] = {median(mount_ms_), "ms"};
    out["ledger.checkpoint_us"] = {median(checkpoint_us_), "us"};
    out["ledger.append_us"] = {median(append_us_), "us"};
    out["rng.table_ns_per_draw"] = {median(table_ns_), "ns"};
    out["rng.scrub_us"] = {median(scrub_us_), "us"};
    out["budget.replay_ratio"] = {replay_ratio_, "ratio"};
    out["dpbox.sim_cycles_per_report"] = {cycles_per_report_, "cycles"};
    out["ledger.bytes_per_spend"] = {bytes_per_spend_, "bytes"};
    out["ledger.rotations_per_1k_spends"] = {rotations_per_1k_, "count"};
}

} // namespace

std::unique_ptr<Workload>
makeDeviceLedger(uint64_t seed)
{
    return std::make_unique<DeviceLedger>(seed);
}

} // namespace perfbench
