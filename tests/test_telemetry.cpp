/**
 * @file
 * Tests for the telemetry subsystem: lock-free metric primitives, the
 * registry, both exporters (golden-output pinned), the bounded event
 * journal (wrap, drops, mid-write skip), the process-global scope and
 * its enable gate, the hot-path instrumentation hooks, and -- the
 * acceptance criterion that matters most -- that enabling telemetry
 * cannot move a single bit of a fleet result.
 *
 * The concurrency tests run under ULPDP_SANITIZE=thread in CI; they
 * hammer one counter / histogram / journal from many threads and
 * assert nothing is lost, which TSan turns into a data-race proof.
 */

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/budget.h"
#include "fleet/fleet.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"

namespace ulpdp {
namespace {

/** Restore the global gate and zero the global scope around a test
 *  that flips it, so test order cannot leak telemetry state. */
struct GlobalTelemetryGuard
{
    GlobalTelemetryGuard() { telemetry::reset(); }
    ~GlobalTelemetryGuard()
    {
        telemetry::setEnabled(false);
        telemetry::reset();
    }
};

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

TEST(TelemetryPrimitives, CounterCountsAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryPrimitives, SumAccumulatesDoubles)
{
    Sum s;
    s.add(0.5);
    s.add(0.25);
    s.add(0.25);
    EXPECT_DOUBLE_EQ(s.value(), 1.0);
}

TEST(TelemetryPrimitives, GaugeKeepsLastWrite)
{
    Gauge g;
    g.set(3.0);
    g.set(-1.5);
    EXPECT_DOUBLE_EQ(g.value(), -1.5);
}

TEST(TelemetryPrimitives, HistogramBucketsWithLeSemantics)
{
    LatencyHistogram h({1.0, 2.0, 4.0});
    h.observe(1.0); // le="1" (bounds are inclusive upper bounds)
    h.observe(2.0);
    h.observe(3.0);
    h.observe(100.0); // +Inf
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u); // +Inf slot
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 106.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(TelemetryPrimitives, HistogramRejectsBadBounds)
{
    EXPECT_THROW(LatencyHistogram({}), FatalError);
    EXPECT_THROW(LatencyHistogram({2.0, 1.0}), FatalError);
    EXPECT_THROW(LatencyHistogram({1.0, 1.0}), FatalError);
}

TEST(TelemetryPrimitives, ScopedTimerObservesOnDestruction)
{
    LatencyHistogram h({1e9});
    {
        ScopedTimer t(h);
    }
    EXPECT_EQ(h.count(), 1u);
    {
        ScopedTimer t(h);
        t.cancel();
    }
    EXPECT_EQ(h.count(), 1u); // cancelled timer records nothing
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

TEST(MetricRegistryTest, ReRegistrationReturnsTheSameInstance)
{
    MetricRegistry reg;
    Counter &a = reg.counter("ulpdp_test_total", "help", "u");
    Counter &b = reg.counter("ulpdp_test_total", "help", "u");
    EXPECT_EQ(&a, &b);
    a.inc();
    EXPECT_EQ(b.value(), 1u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricRegistryTest, LabelsDistinguishSeries)
{
    MetricRegistry reg;
    Counter &a =
        reg.counter("ulpdp_test_total", "help", "u", "cohort=\"a\"");
    Counter &b =
        reg.counter("ulpdp_test_total", "help", "u", "cohort=\"b\"");
    EXPECT_NE(&a, &b);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistryTest, TypeMismatchIsFatal)
{
    MetricRegistry reg;
    reg.counter("ulpdp_test_total", "help");
    EXPECT_THROW(reg.gauge("ulpdp_test_total", "help"), PanicError);
    EXPECT_THROW(reg.sum("ulpdp_test_total", "help"), PanicError);
    reg.histogram("ulpdp_test_hist", "help", "u", {1.0, 2.0});
    EXPECT_THROW(reg.histogram("ulpdp_test_hist", "help", "u",
                               {1.0, 3.0}),
                 PanicError);
}

TEST(MetricRegistryTest, SnapshotPreservesRegistrationOrder)
{
    MetricRegistry reg;
    reg.counter("ulpdp_z_total", "late-alphabet first");
    reg.gauge("ulpdp_a_gauge", "early-alphabet second");
    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].info.name, "ulpdp_z_total");
    EXPECT_EQ(snap[1].info.name, "ulpdp_a_gauge");
}

TEST(MetricRegistryTest, ResetAllZeroesEverything)
{
    MetricRegistry reg;
    Counter &c = reg.counter("ulpdp_test_total", "h");
    Gauge &g = reg.gauge("ulpdp_test_gauge", "h");
    LatencyHistogram &h =
        reg.histogram("ulpdp_test_hist", "h", "u", {1.0});
    c.inc(7);
    g.set(3.0);
    h.observe(0.5);
    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
    EXPECT_EQ(h.count(), 0u);
}

// ---------------------------------------------------------------------
// Exporters (golden output)
// ---------------------------------------------------------------------

/** One registry both golden tests share, covering every metric kind,
 *  a labelled family, and histogram bucket accumulation. */
MetricRegistry &
goldenRegistry()
{
    static MetricRegistry reg;
    static bool built = false;
    if (!built) {
        built = true;
        reg.counter("ulpdp_test_requests_total", "Requests served",
                    "requests")
            .inc(3);
        reg.counter("ulpdp_test_requests_total", "Requests served",
                    "requests", "cohort=\"a\"")
            .inc(2);
        reg.gauge("ulpdp_test_budget_remaining", "Remaining budget",
                  "nats")
            .set(2.5);
        LatencyHistogram &h = reg.histogram(
            "ulpdp_test_latency_cycles", "Noising latency", "cycles",
            {1.0, 2.0, 4.0});
        h.observe(1.0);
        h.observe(2.0);
        h.observe(3.0);
        h.observe(100.0);
    }
    return reg;
}

TEST(TelemetryExport, PrometheusTextMatchesGolden)
{
    const std::string expected =
        "# HELP ulpdp_test_requests_total Requests served (requests)\n"
        "# TYPE ulpdp_test_requests_total counter\n"
        "ulpdp_test_requests_total 3\n"
        "ulpdp_test_requests_total{cohort=\"a\"} 2\n"
        "# HELP ulpdp_test_budget_remaining Remaining budget (nats)\n"
        "# TYPE ulpdp_test_budget_remaining gauge\n"
        "ulpdp_test_budget_remaining 2.5\n"
        "# HELP ulpdp_test_latency_cycles Noising latency (cycles)\n"
        "# TYPE ulpdp_test_latency_cycles histogram\n"
        "ulpdp_test_latency_cycles_bucket{le=\"1\"} 1\n"
        "ulpdp_test_latency_cycles_bucket{le=\"2\"} 2\n"
        "ulpdp_test_latency_cycles_bucket{le=\"4\"} 3\n"
        "ulpdp_test_latency_cycles_bucket{le=\"+Inf\"} 4\n"
        "ulpdp_test_latency_cycles_sum 106\n"
        "ulpdp_test_latency_cycles_count 4\n";
    EXPECT_EQ(telemetry::toPrometheusText(goldenRegistry()), expected);
}

TEST(TelemetryExport, JsonMatchesGolden)
{
    JsonWriter json;
    json.beginObject();
    telemetry::metricsToJson(goldenRegistry(), json);
    json.endObject();
    const std::string expected =
        "{\"metrics\":["
        "{\"name\":\"ulpdp_test_requests_total\","
        "\"type\":\"counter\",\"unit\":\"requests\",\"value\":3},"
        "{\"name\":\"ulpdp_test_requests_total\","
        "\"labels\":\"cohort=\\\"a\\\"\","
        "\"type\":\"counter\",\"unit\":\"requests\",\"value\":2},"
        "{\"name\":\"ulpdp_test_budget_remaining\","
        "\"type\":\"gauge\",\"unit\":\"nats\",\"value\":2.5},"
        "{\"name\":\"ulpdp_test_latency_cycles\","
        "\"type\":\"histogram\",\"unit\":\"cycles\","
        "\"le\":[1,2,4],\"counts\":[1,1,1,1],"
        "\"count\":4,\"sum\":106}"
        "]}";
    EXPECT_EQ(json.str(), expected);
}

TEST(TelemetryExport, JournalJsonMatchesGolden)
{
    EventJournal j(16);
    j.record(EventKind::BudgetSpend, 1, 0.5);
    j.record(EventKind::HaltReplay, 2, 0.0);
    JsonWriter json;
    json.beginObject();
    telemetry::journalToJson(j, json);
    json.endObject();
    const std::string expected =
        "{\"journal\":{\"recorded\":2,\"dropped\":0,\"capacity\":16,"
        "\"events\":["
        "{\"kind\":\"budget_spend\",\"tick\":1,\"value\":0.5},"
        "{\"kind\":\"halt_replay\",\"tick\":2,\"value\":0}"
        "]}}";
    EXPECT_EQ(json.str(), expected);
}

// ---------------------------------------------------------------------
// Event journal
// ---------------------------------------------------------------------

TEST(EventJournalTest, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(EventJournal(1).capacity(), 16u);
    EXPECT_EQ(EventJournal(16).capacity(), 16u);
    EXPECT_EQ(EventJournal(17).capacity(), 32u);
    EXPECT_EQ(EventJournal(1000).capacity(), 1024u);
}

TEST(EventJournalTest, RetainsNewestAndCountsDrops)
{
    EventJournal j(16);
    for (uint64_t i = 0; i < 40; ++i)
        j.record(EventKind::BudgetSpend, i,
                 static_cast<double>(i) * 0.5);
    EXPECT_EQ(j.recorded(), 40u);
    EXPECT_EQ(j.dropped(), 24u);
    auto events = j.snapshot();
    ASSERT_EQ(events.size(), 16u);
    // Oldest first; ticks 24..39 survive the wrap.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].tick, 24u + i);
        EXPECT_DOUBLE_EQ(events[i].value, (24.0 + i) * 0.5);
    }
}

TEST(EventJournalTest, ClearForgetsEverything)
{
    EventJournal j(16);
    j.record(EventKind::FaultLatch, 7, 1.0);
    j.clear();
    EXPECT_EQ(j.recorded(), 0u);
    EXPECT_EQ(j.dropped(), 0u);
    EXPECT_TRUE(j.snapshot().empty());
}

TEST(EventJournalTest, EveryKindRoundTripsWithItsName)
{
    const EventKind kinds[] = {
        EventKind::BudgetSpend,   EventKind::HaltReplay,
        EventKind::FaultLatch,    EventKind::Replenish,
        EventKind::HealthAlarm,   EventKind::BusDegrade,
        EventKind::ResampleOverflow,
    };
    EventJournal j(16);
    for (EventKind k : kinds)
        j.record(k, 0, 0.0);
    auto events = j.snapshot();
    ASSERT_EQ(events.size(), std::size(kinds));
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].kind, kinds[i]);
        EXPECT_NE(std::string(eventKindName(events[i].kind)), "");
    }
}

// ---------------------------------------------------------------------
// Concurrency (data-race proof under ULPDP_SANITIZE=thread)
// ---------------------------------------------------------------------

TEST(TelemetryConcurrency, ConcurrentIncrementsAllLand)
{
    MetricRegistry reg;
    Counter &c = reg.counter("ulpdp_test_total", "h");
    Sum &s = reg.sum("ulpdp_test_nats_total", "h");
    LatencyHistogram &h =
        reg.histogram("ulpdp_test_hist", "h", "u", {0.5});
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kIters = 10000;

    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&]() {
            for (uint64_t i = 0; i < kIters; ++i) {
                c.inc();
                s.add(0.25);
                h.observe(static_cast<double>(i % 2));
            }
        });
    }
    for (auto &t : pool)
        t.join();

    EXPECT_EQ(c.value(), kThreads * kIters);
    EXPECT_DOUBLE_EQ(s.value(), kThreads * kIters * 0.25);
    EXPECT_EQ(h.count(), kThreads * kIters);
    EXPECT_EQ(h.bucketCount(0), kThreads * kIters / 2); // the 0.0s
    EXPECT_EQ(h.bucketCount(1), kThreads * kIters / 2); // the 1.0s
}

TEST(TelemetryConcurrency, ConcurrentRegistrationIsSafe)
{
    MetricRegistry reg;
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&]() {
            // Everyone registers the same key; all must get the same
            // instance and all increments must land on it.
            reg.counter("ulpdp_test_shared_total", "h").inc();
        });
    }
    for (auto &t : pool)
        t.join();
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.counter("ulpdp_test_shared_total", "h").value(),
              kThreads);
}

TEST(TelemetryConcurrency, JournalWritersNeverTearASnapshot)
{
    EventJournal j(64);
    constexpr unsigned kThreads = 4;
    constexpr uint64_t kIters = 5000;
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kThreads; ++t) {
        writers.emplace_back([&j, t]() {
            for (uint64_t i = 0; i < kIters; ++i)
                j.record(EventKind::BudgetSpend, i,
                         static_cast<double>(t));
        });
    }
    // A reader snapshots continuously while writers hammer the ring;
    // every retained event must be well-formed (a writer's value is
    // its thread id, so any torn slot shows as an out-of-range value).
    std::thread reader([&]() {
        while (!stop.load(std::memory_order_relaxed)) {
            for (const JournalEvent &ev : j.snapshot()) {
                EXPECT_EQ(ev.kind, EventKind::BudgetSpend);
                EXPECT_GE(ev.value, 0.0);
                EXPECT_LT(ev.value, static_cast<double>(kThreads));
                EXPECT_LT(ev.tick, kIters);
            }
        }
    });
    for (auto &t : writers)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    EXPECT_EQ(j.recorded(), kThreads * kIters);
}

// ---------------------------------------------------------------------
// Global scope and instrumentation hooks
// ---------------------------------------------------------------------

TEST(GlobalTelemetry, DisabledGateRecordsNothing)
{
    GlobalTelemetryGuard guard;
    ASSERT_FALSE(telemetry::enabled());
    uint64_t before = telemetry::journal().recorded();
    telemetry::event(EventKind::FaultLatch, 1, 1.0);
    EXPECT_EQ(telemetry::journal().recorded(), before);
}

TEST(GlobalTelemetry, EventBumpsCounterAndJournal)
{
    GlobalTelemetryGuard guard;
    telemetry::setEnabled(true);
    telemetry::event(EventKind::HaltReplay, 17, 0.0);
    telemetry::event(EventKind::HaltReplay, 18, 0.0);
    Counter &c = telemetry::registry().counter(
        "ulpdp_events_total", "Privacy-relevant events by kind",
        "events", "kind=\"halt_replay\"");
    EXPECT_EQ(c.value(), 2u);
    auto events = telemetry::journal().snapshot();
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events[events.size() - 2].tick, 17u);
    EXPECT_EQ(events.back().tick, 18u);
}

/** A budget controller sized so the third request halts. */
BudgetController
meteredController()
{
    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    ThresholdCalculator calc(p);
    BudgetControllerConfig cfg;
    cfg.kind = RangeControl::Thresholding;
    cfg.segments =
        LossSegments::compute(calc, cfg.kind, {1.5, 2.0});
    cfg.initial_budget = 1.2; // two central-loss reports, not three
    return BudgetController(p, cfg);
}

TEST(GlobalTelemetry, BudgetControllerWitnessesSpendAndHalt)
{
    GlobalTelemetryGuard guard;
    telemetry::setEnabled(true);

    BudgetController ctl = meteredController();
    MetricRegistry &reg = telemetry::registry();
    Counter &fresh =
        reg.counter("ulpdp_budget_fresh_reports_total", "");
    Counter &halts =
        reg.counter("ulpdp_budget_halt_replays_total", "");
    Sum &spend = reg.sum("ulpdp_budget_spend_nats_total", "");

    double charged = 0.0;
    while (ctl.remainingBudget() > 0.0 &&
           fresh.value() < 64) { // bounded: exhaustion must arrive
        BudgetResponse r = ctl.request(5.0);
        if (r.from_cache)
            break;
        charged += r.charged;
    }
    BudgetResponse halted = ctl.request(5.0);

    EXPECT_TRUE(halted.from_cache);
    EXPECT_EQ(fresh.value(), ctl.freshReports());
    EXPECT_GE(halts.value(), 1u);
    EXPECT_DOUBLE_EQ(spend.value(), charged);

    // The journal carries one BudgetSpend per fresh report and at
    // least one HaltReplay, in order.
    uint64_t spends = 0, replays = 0;
    for (const JournalEvent &ev : telemetry::journal().snapshot()) {
        spends += ev.kind == EventKind::BudgetSpend;
        replays += ev.kind == EventKind::HaltReplay;
    }
    EXPECT_EQ(spends, ctl.freshReports());
    EXPECT_GE(replays, 1u);
}

TEST(GlobalTelemetry, FleetRunPublishesCohortCounters)
{
    GlobalTelemetryGuard guard;
    telemetry::setEnabled(true);

    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 14;
    p.output_bits = 12;
    p.delta = 10.0 / 32.0;
    FleetConfig fc;
    fc.master_seed = 7;
    fc.block_nodes = 64;
    CohortConfig c;
    c.name = "witness";
    c.mechanism_name = "thresholding";
    c.params = p;
    c.nodes = 200;
    c.reports_per_node = 3;
    c.analyze_loss = false;
    fc.cohorts = {c};

    FleetReport rep = FleetRunner(fc).run(2);
    Counter &reports = telemetry::registry().counter(
        "ulpdp_fleet_reports_total", "", "",
        "cohort=\"witness\"");
    EXPECT_EQ(reports.value(), rep.cohorts[0].reports);
    EXPECT_EQ(reports.value(), 200u * 3u);
}

// ---------------------------------------------------------------------
// The determinism acceptance criterion
// ---------------------------------------------------------------------

TEST(GlobalTelemetry, FleetFingerprintImmuneToTelemetry)
{
    GlobalTelemetryGuard guard;

    FxpMechanismParams p;
    p.range = SensorRange(0.0, 10.0);
    p.epsilon = 0.5;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = 10.0 / 32.0;
    FleetConfig fc;
    fc.master_seed = 99;
    fc.block_nodes = 128;
    CohortConfig thr;
    thr.name = "thr";
    thr.mechanism_name = "thresholding";
    thr.params = p;
    thr.nodes = 1000;
    thr.reports_per_node = 4;
    thr.budget_per_node = 2.5; // some replays
    thr.analyze_loss = false;
    CohortConfig res = thr;
    res.name = "res";
    res.mechanism_name = "resampling";
    res.budget_per_node = 0.0;
    fc.cohorts = {thr, res};
    FleetRunner runner(fc);

    uint64_t off = runner.run(1).fingerprint();
    telemetry::setEnabled(true);
    uint64_t on1 = runner.run(1).fingerprint();
    uint64_t on4 = runner.run(4).fingerprint();
    telemetry::setEnabled(false);

    EXPECT_EQ(off, on1);
    EXPECT_EQ(off, on4);
}

} // anonymous namespace
} // namespace ulpdp
