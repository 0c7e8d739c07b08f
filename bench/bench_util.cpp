#include "bench_util.h"

#include <cmath>
#include <cstdio>

#include "agg/decode.h"
#include "common/logging.h"
#include "common/stats.h"
#include "data/generators.h"
#include "fleet/fleet.h"
#include "query/query.h"

namespace ulpdp {
namespace bench {

namespace {

/**
 * Answer @p query from one trial's decoded input-frequency estimate.
 * Returns false when the decoder serves no estimator for the query
 * (the row then reports the streaming columns as unsupported).
 */
bool
decodedAnswer(const Query &query, const agg::DecodedFrequencies &d,
              double input_value0, double delta, double *answer)
{
    const std::string name = query.name();
    if (name == "mean") {
        *answer = d.mean;
    } else if (name == "median") {
        *answer = d.median;
    } else if (name == "variance") {
        *answer = d.variance;
    } else if (name == "stddev") {
        *answer = std::sqrt(d.variance);
    } else if (name == "count") {
        auto *count = dynamic_cast<const CountAboveQuery *>(&query);
        if (count == nullptr)
            return false;
        *answer = agg::decodedCountAbove(d, input_value0, delta,
                                         count->threshold());
    } else {
        return false;
    }
    return true;
}

} // anonymous namespace

void
banner(const std::string &title, const std::string &what)
{
    // Benches snap many ranges onto coarse grids on purpose; the
    // per-mechanism snap warnings would drown the tables.
    setLoggingEnabled(false);

    std::printf("======================================================"
                "=====\n");
    std::printf("%s\n", title.c_str());
    std::printf("%s\n", what.c_str());
    std::printf("======================================================"
                "=====\n");
}

std::string
jsonPathFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json") {
            if (i + 1 >= argc)
                fatal("--json requires a path argument");
            return argv[i + 1];
        }
    }
    return "";
}

FxpMechanismParams
standardParams(const Dataset &data, double epsilon, uint64_t seed)
{
    FxpMechanismParams p;
    p.range = data.range;
    p.epsilon = epsilon;
    p.uniform_bits = 17;
    p.output_bits = 14;
    p.delta = data.range.length() / 32.0;
    p.seed = seed;
    return p;
}

std::vector<SettingRow>
runFourSettings(const Dataset &data, const Query &query, double epsilon,
                double loss_multiple, int trials, uint64_t seed)
{
    if (trials < 1)
        fatal("runFourSettings: trials must be positive");
    FxpMechanismParams p = standardParams(data, epsilon, seed);

    // Four cohorts of one fleet: entry i = node i, materialized so the
    // query can be evaluated per trial after the run. The per-cohort
    // threshold search and exact loss analysis happen inside the
    // runner (fatal when no threshold satisfies the bound, matching
    // the old behaviour).
    FleetConfig fc;
    fc.master_seed = seed;
    // Table-sized cohorts: small blocks so even a 100-entry dataset
    // gives the thread pool something to balance.
    fc.block_nodes = 256;
    // Every setting selects its mechanism by name: the paper's four
    // settings plus the two registry mechanisms that postdate it. The
    // cohort planner resolves scale corrections / rounding modes
    // through the registered lowering, so these rows exercise the
    // same path a user mixing mechanisms would.
    auto makeCohort = [&](const char *name, const char *mechanism) {
        CohortConfig c;
        c.name = name;
        c.mechanism_name = mechanism;
        c.params = p;
        c.loss_multiple = loss_multiple;
        c.values = data.values;
        c.reports_per_node = static_cast<uint32_t>(trials);
        c.materialize = true;
        // Streaming aggregation alongside the materialized path:
        // per-trial sketch rows let the agg decoder answer the same
        // query per trial, so the tables compare both estimators on
        // identical reports. Ideal has no output grid and skips it.
        c.agg.enabled = std::string(mechanism) != "ideal";
        c.agg.per_trial = true;
        return c;
    };
    fc.cohorts = {
        makeCohort("Ideal Local DP", "ideal"),
        makeCohort("FxP HW Baseline", "naive"),
        makeCohort("Resampling", "resampling"),
        makeCohort("Thresholding", "thresholding"),
        makeCohort("Bounded Laplace", "bounded-laplace"),
        makeCohort("Discrete Laplace", "discrete-laplace"),
    };

    FleetRunner runner(std::move(fc));
    FleetReport report = runner.run();

    double true_value = query.evaluate(data.values);
    std::vector<SettingRow> rows;
    for (const CohortResult &c : report.cohorts) {
        SettingRow row;
        row.setting = c.name;

        RunningStats err;
        for (int t = 0; t < trials; ++t) {
            double answer = query.evaluate(
                c.trialReports(static_cast<uint32_t>(t)));
            err.add(std::abs(answer - true_value));
        }
        row.util.mae = err.mean();
        row.util.mae_std = err.stddev();
        row.util.true_value = true_value;
        row.util.relative_error = true_value != 0.0
            ? row.util.mae / std::abs(true_value)
            : row.util.mae;
        row.util.samples_drawn = c.samples_drawn;
        row.util.reports = c.reports;

        row.ldp = c.ldp;
        row.worst_loss = c.worst_loss;

        // Streaming estimator: decode each trial's sketch row and
        // answer the query from the decoded input frequencies.
        if (c.agg) {
            const CohortAggResult &ar = *c.agg;
            RunningStats agg_err;
            bool supported = true;
            for (int t = 0; t < trials && supported; ++t) {
                agg::DecodedFrequencies d = ar.decoder->decode(
                    ar.sketch.trialSlots(static_cast<uint32_t>(t)),
                    ar.input_value0, ar.delta);
                double answer = 0.0;
                supported = decodedAnswer(query, d, ar.input_value0,
                                          ar.delta, &answer);
                if (supported)
                    agg_err.add(std::abs(answer - true_value));
            }
            row.agg_supported = supported;
            if (supported) {
                row.agg_mae = agg_err.mean();
                row.agg_mae_std = agg_err.stddev();
            }
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

std::vector<Dataset>
benchDatasets(size_t max_entries)
{
    std::vector<Dataset> all = makeAllTableOneDatasets();
    for (auto &d : all) {
        if (d.size() > max_entries)
            d = d.subsample(max_entries);
    }
    return all;
}

} // namespace bench
} // namespace ulpdp
