/**
 * @file
 * Benchmark harness entry point.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--git-sha SHA] [--src-digest HEX]
 *
 * --trace 0 runs workload W untraced: timed set-ups, then a closed loop
 * of ops for S seconds, and prints the end-to-end metrics.
 * --trace 1 runs every workload (S/3 seconds each) with ops alternating
 * untraced and traced, and prints the per-layer metrics plus the
 * tracing overhead per workload; spans go to DIR/trace-W-N.json.
 *
 * The last line of stdout is the result object; lines before it start
 * with '#' and carry provenance and sample counts.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/json.h"
#include "rng/taus_bank.h"

namespace perfbench {
namespace {

const char *const kWorkloads[] = {"fleet-epoch", "device-ledger",
                                  "certify-registry"};

/** Timed set-ups per untraced run (setup_s is their median): at
 *  least kSetupReps, and more while they add up to under
 *  kSetupBudgetS, so a microsecond set-up is not a median of five
 *  cold-cache samples. */
constexpr int kSetupReps = 5;
constexpr int kMaxSetupReps = 10000;
constexpr double kSetupBudgetS = 0.25;

/** Timed set-ups per workload in a traced run. */
constexpr int kTraceSetupReps = 3;

/** Fewest ops a run measures: the tail needs 10 beyond it. */
constexpr size_t kMinOps = 11;

/** Fewest traced (and untraced) ops per workload in a traced run. */
constexpr size_t kMinTraceOps = 3;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string work_dir = ".";
    std::string git_sha = "none";
    std::string src_digest = "none";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fleet-epoch|device-ledger|certify-registry --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] "
                 "[--git-sha SHA] [--src-digest HEX]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        std::string val = argv[++i];
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), nullptr, 10);
            have_seed = true;
        } else if (key == "--seconds") {
            o.seconds = std::atof(val.c_str());
            have_seconds = true;
        } else if (key == "--trace") {
            o.trace = val == "1";
        } else if (key == "--work-dir") {
            o.work_dir = val;
        } else if (key == "--git-sha") {
            o.git_sha = val;
        } else if (key == "--src-digest") {
            o.src_digest = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || o.workload == w;
    if (!known)
        usage("unknown or missing --workload");
    if (!have_seed || !have_seconds || !(o.seconds > 0.0))
        usage("--seed and a positive --seconds are required");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Options &o)
{
    if (name == "fleet-epoch")
        return makeFleetEpoch(o.seed);
    if (name == "device-ledger")
        return makeDeviceLedger(o.seed);
    return makeCertifyRegistry(o.seed, o.work_dir);
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ',
                                                           colon + 1));
        }
    }
    return "unknown";
}

std::string
provenance(const Options &o, unsigned threads)
{
    ulpdp::JsonWriter j;
    j.beginObject();
    j.field("compiler", PERFBENCH_COMPILER);
    j.field("flags", PERFBENCH_FLAGS);
    j.field("build_type", PERFBENCH_BUILD_TYPE);
    j.field("simd_option", PERFBENCH_SIMD_OPTION);
    j.field("simd_kernel", ulpdp::TausBank::kernelName());
    j.field("cpu_model", cpuModel());
    j.field("nproc", std::thread::hardware_concurrency());
    j.field("workload", o.workload);
    j.field("op_threads", threads);
    j.field("seed", o.seed);
    j.field("seconds", o.seconds);
    j.field("trace", o.trace);
    j.field("git_sha", o.git_sha);
    j.field("src_digest", o.src_digest);
    j.endObject();
    return j.str();
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Outcome of ops across a run. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t items = 0;
    bool prepared = true;

    /** Run, time and check one op; returns its seconds. */
    double
    runOp(Workload &w, Tracer *tr, int root, uint64_t id)
    {
        w.beforeOp();
        std::string why;
        uint64_t done = 0;
        Clock::time_point t0 = Clock::now();
        try {
            done = w.op(tr, root, id);
        } catch (const std::exception &e) {
            why = std::string("op threw: ") + e.what();
        }
        Clock::time_point t1 = Clock::now();
        if (why.empty())
            why = w.verify();
        ++attempted;
        if (!why.empty()) {
            if (failed < 5)
                std::fprintf(stderr, "perfbench: op %llu failed: %s\n",
                             static_cast<unsigned long long>(id),
                             why.c_str());
            ++failed;
        } else {
            items += done;
        }
        return secondsBetween(t0, t1);
    }
};

void
printResult(const Tally &t, const MetricMap &metrics)
{
    ulpdp::JsonWriter j;
    j.beginObject();
    j.field("correct", t.prepared && t.failed == 0);
    j.field("attempted", t.attempted);
    j.field("failed", t.failed);
    j.beginObject("metrics");
    for (const auto &[name, m] : metrics) {
        j.beginObject(name);
        j.field("value", m.value);
        j.field("unit", m.unit);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    std::printf("%s\n", j.str().c_str());
}

std::string
prepareOrReport(Workload &w, const std::string &name, Tally &t)
{
    std::string why;
    try {
        why = w.prepare();
    } catch (const std::exception &e) {
        why = std::string("prepare threw: ") + e.what();
    }
    if (!why.empty()) {
        std::fprintf(stderr, "perfbench: %s: reference failed: %s\n",
                     name.c_str(), why.c_str());
        t.prepared = false;
    }
    return why;
}

int
runUntraced(const Options &o)
{
    std::unique_ptr<Workload> w = makeWorkload(o.workload, o);
    std::printf("# provenance %s\n",
                provenance(o, w->threads()).c_str());

    std::vector<double> setups;
    double setup_total = 0.0;
    while (setups.size() < kSetupReps ||
           (setup_total < kSetupBudgetS && setups.size() < kMaxSetupReps)) {
        setups.push_back(w->setup(nullptr));
        setup_total += setups.back();
    }

    Tally t;
    prepareOrReport(*w, o.workload, t);

    std::vector<double> op_s;
    Clock::time_point start = Clock::now();
    while (op_s.size() < kMinOps ||
           secondsBetween(start, Clock::now()) < o.seconds)
        op_s.push_back(t.runOp(*w, nullptr, -1, op_s.size()));

    std::vector<double> sorted = op_s;
    std::sort(sorted.begin(), sorted.end());
    size_t n = sorted.size();
    // Highest percentile with ten ops beyond it: the 11th largest.
    double tail = sorted[n - 11];
    double total = 0.0;
    for (double s : op_s)
        total += s;

    std::printf("# %s: %zu ops in %.3f s of op time; op_ms_tail is "
                "p%.1f (10 of %zu ops beyond it); setup_s is the "
                "median of %zu set-ups\n",
                o.workload.c_str(), n, total,
                100.0 * static_cast<double>(n - 10) /
                    static_cast<double>(n),
                n, setups.size());

    // Raw op latencies in issue order, for steadiness analysis.
    std::ofstream raw(o.work_dir + "/ops-" + o.workload + "-" +
                      std::to_string(o.seed) + ".txt");
    for (double s : op_s)
        raw << s * 1e3 << "\n";

    MetricMap m;
    m["throughput_per_s"] = {static_cast<double>(t.items) / total, "1/s"};
    m["op_ms_p50"] = {median(op_s) * 1e3, "ms"};
    m["op_ms_tail"] = {tail * 1e3, "ms"};
    m["setup_s"] = {median(setups), "s"};
    m["peak_rss_mb"] = {peakRssMb(), "MB"};
    printResult(t, m);
    return 0;
}

int
runTraced(const Options &o)
{
    Tracer tr;
    Tally t;
    MetricMap layers;
    const double share = o.seconds / 3.0;
    uint64_t op_id = 0;
    unsigned threads = 1;
    for (const char *name : kWorkloads) {
        std::unique_ptr<Workload> w = makeWorkload(name, o);
        threads = std::max(threads, w->threads());
        for (int r = 0; r < kTraceSetupReps; ++r)
            w->setup(&tr);
        prepareOrReport(*w, name, t);

        // Alternate untraced and traced ops so both see the same
        // machine state; the ratio of their medians is the overhead
        // of the spans themselves (replays run outside both).
        std::vector<double> plain_s;
        std::vector<double> traced_s;
        Clock::time_point start = Clock::now();
        while (traced_s.size() < kMinTraceOps ||
               secondsBetween(start, Clock::now()) < share) {
            plain_s.push_back(t.runOp(*w, nullptr, -1, op_id++));
            uint64_t id = op_id++;
            int root = tr.open(std::string("op.") + name, -1, id);
            traced_s.push_back(t.runOp(*w, &tr, root, id));
            tr.close(root);
            w->replay(tr, root, id);
        }
        w->layers(layers);
        double overhead = median(traced_s) / median(plain_s) - 1.0;
        layers[std::string("trace.") + name + "_overhead_pct"] = {
            100.0 * overhead, "%"};
        std::printf("# %s: %zu untraced + %zu traced ops\n", name,
                    plain_s.size(), traced_s.size());
    }

    std::string prov = provenance(o, threads);
    std::printf("# provenance %s\n", prov.c_str());
    std::string path = o.work_dir + "/trace-" + o.workload + "-" +
                       std::to_string(o.seed) + ".json";
    if (tr.write(path, prov))
        std::printf("# spans written to %s\n", path.c_str());
    else
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     path.c_str());
    printResult(t, layers);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options o = perfbench::parseArgs(argc, argv);
    // Library warnings go to stderr and are counted by the checks; the
    // result line must stay the last line of stdout.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    try {
        return o.trace ? perfbench::runTraced(o)
                       : perfbench::runUntraced(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
