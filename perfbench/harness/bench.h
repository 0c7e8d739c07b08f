/**
 * @file
 * Shared pieces of the benchmark harness: the workload interface, the
 * in-memory span tracer, and small timing helpers.
 *
 * Every workload is a closed loop with one client: the harness issues
 * an op, waits for it, checks its output, then issues the next. Set-up
 * is timed separately from ops, and nothing inside an op is allowed to
 * warm a memo cache the next op would hit (ops stay homogeneous).
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** One emitted metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/** Median of a non-empty sample (copy: the caller's order is kept). */
double median(std::vector<double> v);

/** SplitMix64 step: derives independent sub-seeds from the CLI seed. */
uint64_t mixSeed(uint64_t seed, uint64_t salt);

/**
 * Spans kept in memory and written as JSON when the run ends.
 *
 * A span has a name, start and end (ns since the tracer was created),
 * its parent span (-1 for a root) and the op it belongs to. High-rate
 * calls (one per reading) are recorded as one aggregate span per op:
 * `calls` counts them and `busy_ns` sums their individual durations,
 * so the aggregate's start/end may interleave with a sibling's.
 * Replay spans re-run a layer's public call on the op's own inputs
 * after the op finished (the program makes the call internally, so it
 * cannot be timed from outside in place); they carry replay = true and
 * are never inside an op's timed interval.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int64_t start_ns = 0;
        int64_t end_ns = 0;
        int parent = -1;
        uint64_t op = 0;
        uint64_t calls = 1;
        int64_t busy_ns = 0;
        bool replay = false;
    };

    Tracer();

    /** Open a span starting now; close() stamps its end. */
    int open(const std::string &name, int parent, uint64_t op);
    void close(int id);

    /** Record a closed span; returns its id. */
    int record(const std::string &name, int parent, uint64_t op,
               Clock::time_point start, Clock::time_point end,
               uint64_t calls = 1, int64_t busy_ns = -1,
               bool replay = false);

    /** Busy seconds of a span. */
    double seconds(int id) const;

    /** Write every span plus the provenance object as JSON. */
    bool write(const std::string &path,
               const std::string &provenance_json) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/** Accumulates one aggregate span's calls inside an op. */
struct CallAccumulator
{
    Clock::time_point first{};
    Clock::time_point last{};
    uint64_t calls = 0;
    int64_t busy_ns = 0;

    void
    add(Clock::time_point a, Clock::time_point b)
    {
        if (calls == 0)
            first = a;
        last = b;
        ++calls;
        busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       b - a).count();
    }

    /** Mean ns per call (0 when nothing was recorded). */
    double
    nsPerCall() const
    {
        return calls ? static_cast<double>(busy_ns) /
                           static_cast<double>(calls)
                     : 0.0;
    }

    int
    flush(Tracer &tr, const std::string &name, int parent,
          uint64_t op) const
    {
        return tr.record(name, parent, op, first, last, calls, busy_ns);
    }
};

/**
 * A benchmark workload. The harness calls setup() several times (each
 * timed and each replacing the previous state), prepare() once, then
 * beforeOp()/op()/verify() in a closed loop. Only op() is inside the
 * measured interval.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Real set-up work; returns its seconds. Spans go to @p tr when
     *  tracing. */
    virtual double setup(Tracer *tr) = 0;

    /** Untimed: warm-up ops and reference outputs. Returns "" or the
     *  reason the reference could not be established. */
    virtual std::string prepare() = 0;

    /** Untimed per-op reset (e.g. clearing a memo cache). */
    virtual void beforeOp() {}

    /** One op; returns the items it completed. */
    virtual uint64_t op(Tracer *tr, int root, uint64_t op_id) = 0;

    /** Untimed check of the op just run: "" when correct. */
    virtual std::string verify() = 0;

    /** Traced runs only: replay the just-finished op's internal layer
     *  calls under spans (outside the op's timed interval). */
    virtual void replay(Tracer &tr, int root, uint64_t op_id) = 0;

    /** Traced runs only: per-layer metrics from every traced op. */
    virtual void layers(MetricMap &out) const = 0;

    /** Worker threads (or jobs) one op uses. */
    virtual unsigned threads() const = 0;
};

std::unique_ptr<Workload> makeFleetEpoch(uint64_t seed);
std::unique_ptr<Workload> makeDeviceLedger(uint64_t seed);
std::unique_ptr<Workload> makeCertifyRegistry(uint64_t seed,
                                              const std::string &work_dir);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
