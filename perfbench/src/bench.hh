/**
 * @file
 * Shared pieces of the benchmark binary: options, the outcome every
 * workload reports, sample statistics, and the output checks.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/plan.hh"
#include "trace.hh"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    std::string benchDir;   ///< the benchmark directory (specs, references)
    std::string repoRoot;   ///< checkout root (read-only golden CSV)
    std::string workDir;    ///< working space for caches and journals
    std::string mcscopeExe; ///< CLI binary the serve daemon runs from
    std::string spanOut;    ///< Chrome trace of the traced passes
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run measured and checked. */
struct Outcome
{
    std::vector<Metric> metrics;

    /** Grid points whose output was checked, over every pass. */
    uint64_t attempted = 0;

    /** Checked points that were wrong: a differing cell or a gap. */
    uint64_t failed = 0;

    /** Violated premises (traced != untraced, a warm miss, ...). */
    std::vector<std::string> problems;

    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;

    /** Per-pass series in run order, for the result file. */
    std::vector<std::pair<std::string, std::vector<double>>> series;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile `q` in [0, 1] of `v` (0 when empty). */
double percentile(std::vector<double> v, double q);

/**
 * Timings of one run's untraced passes.  wall_s is the upper quartile
 * of the pass walls: on a shared VM whole stretches of passes run up
 * to 1.8x faster while a noisy neighbour idles, and the upper quartile
 * ignores such stretches unless they cover most of the run, where the
 * median flips with them.  The point percentiles are taken per pass
 * and reported as their median over passes; a pass's tail holds few
 * points, so its p90 spikes, and the median ignores the spikes.
 */
struct PassSamples
{
    std::vector<double> walls, pointP50, pointP90, setups;
    size_t points = 0;

    /** Record one pass: its wall time and its placed points' times. */
    void addPass(double wall, const std::vector<double> &point_ms);

    /** wall_s, point_p50_ms, point_p90_ms, setup_s and peak_rss_mb. */
    void report(Outcome &out, double peak_rss_mb) const;
};

/**
 * Peak resident set (VmHWM) of process `pid` in MiB, 0 when it cannot
 * be read.  Unlike getrusage's ru_maxrss, VmHWM starts afresh at
 * exec, so a process started from a large parent reports its own peak.
 */
double peakRssMb(const std::string &pid = "self");

/** Result of comparing a rendered batch CSV against a reference. */
struct CsvCheck
{
    uint64_t points = 0; ///< option cells in the reference
    uint64_t failed = 0; ///< cells that differ or are missing
    std::string problem; ///< first difference, for the report
};

/**
 * Compare a batch CSV cell by cell against `reference`.  Rows are
 * matched by their key columns (everything up to "ranks"), so a grid
 * whose rows were emitted in another order still checks point by
 * point.  With `byte_exact` the whole text must also be identical.
 */
CsvCheck compareBatchCsv(const std::string &got, const std::string &reference,
                         bool byte_exact);

/** True when two results carry bit-identical simulated numbers. */
bool sameResult(const mcscope::RunResult &a, const mcscope::RunResult &b);

/** Deterministic permutation of 0..n-1 drawn from `seed`. */
std::vector<size_t> seededPermutation(size_t n, uint64_t seed);

/** Layer counters and times of one traced pass. */
struct LayerTotals
{
    double planParse = 0, planExpand = 0, digest = 0, lookup = 0;
    double makeWorkload = 0, machineBuild = 0, place = 0, buildTasks = 0;
    double engineRun = 0, render = 0;
    double journalAppend = 0, journalLoad = 0, frame = 0;
    uint64_t specs = 0, points = 0, hits = 0, misses = 0;
    uint64_t resources = 0, tasks = 0;
    uint64_t events = 0, allocatorReruns = 0, incrementalSolves = 0;
    uint64_t fullSolves = 0, calqueueOps = 0;
    int peakActiveFlows = 0;
    uint64_t reportBytes = 0;
    uint64_t journalAppends = 0, frames = 0, frameBytes = 0;

    /** Fill the span times from `tracer`'s spans after `from`. */
    void takeTimes(const Tracer &tracer, size_t from);
};

/**
 * Append every per-layer metric: span times are medians over
 * `passes`, counts come from the last pass.  `traced_wall` and
 * `untraced_wall` are per-pass wall times of the traced run.
 */
void addLayerMetrics(Outcome &out, const std::vector<LayerTotals> &passes,
                     const std::vector<double> &traced_wall,
                     const std::vector<double> &untraced_wall);

/** Whole file as a string; throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

/**
 * Parse and expand a batch spec document ("plan.parse" and
 * "plan.expand" spans); throws std::runtime_error naming `what`.
 */
mcscope::SweepPlan parsePlan(const std::string &text, const std::string &what,
                             Tracer *tracer);

/** Content digest of every plan spec (one "scenario.digest" span). */
std::vector<uint64_t> specDigests(const mcscope::SweepPlan &plan,
                                  Tracer *tracer);

/** The in-process grid workloads: zoo_cold, paper_cold, grid_warm. */
Outcome runGridWorkload(const Options &opts, Tracer &tracer);

/** serve_journal: a served, journaled batch and its resubmission. */
Outcome runServeWorkload(const Options &opts, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
