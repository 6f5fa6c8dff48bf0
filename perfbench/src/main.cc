/**
 * @file
 * mcscope_perfbench: the benchmark binary perfbench/run.py runs.
 *
 *   mcscope_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *       --bench-dir DIR --repo-root DIR --work-dir DIR
 *       [--mcscope EXE] [--span-out FILE]
 *
 * Runs one workload for S seconds of measured passes, checks every
 * rendered output against its reference, and prints the metrics as
 * human-readable lines, a "detail:" JSON line, and finally one JSON
 * result object.  Exits 1 when an output or a premise check failed,
 * 2 on usage errors or a non-Release build.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>

#include "bench.hh"
#include "util/json.hh"
#include "util/rng.hh"
#include "util/str.hh"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
    rank = std::clamp<size_t>(rank, 1, v.size());
    return v[rank - 1];
}

void
PassSamples::addPass(double wall, const std::vector<double> &point_ms)
{
    walls.push_back(wall);
    pointP50.push_back(percentile(point_ms, 0.50));
    pointP90.push_back(percentile(point_ms, 0.90));
    points += point_ms.size();
}

void
PassSamples::report(Outcome &out, double peak_rss_mb) const
{
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "%zu passes (%zu placed-point samples), %zu set-ups; "
                  "pass wall min/median/max = %.4g/%.4g/%.4g s",
                  walls.size(), points, setups.size(),
                  percentile(walls, 0.0), median(walls),
                  percentile(walls, 1.0));
    out.notes.push_back(buf);
    out.series.push_back({"pass_wall_s", walls});
    out.series.push_back({"pass_point_p50_ms", pointP50});
    out.series.push_back({"pass_point_p90_ms", pointP90});
    out.series.push_back({"setup_s", setups});
    out.add("wall_s", percentile(walls, 0.75), "s");
    out.add("point_p50_ms", median(pointP50), "ms");
    out.add("point_p90_ms", median(pointP90), "ms");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb, "MiB");
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream status("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

namespace {

std::vector<std::string>
csvLines(const std::string &text)
{
    std::vector<std::string> lines = mcscope::split(text, '\n');
    while (!lines.empty() && lines.back().empty())
        lines.pop_back();
    return lines;
}

} // namespace

CsvCheck
compareBatchCsv(const std::string &got, const std::string &reference,
                bool byte_exact)
{
    CsvCheck check;
    const std::vector<std::string> ref_lines = csvLines(reference);
    const std::vector<std::string> got_lines = csvLines(got);
    if (ref_lines.empty()) {
        check.failed = 1;
        check.problem = "empty reference";
        return check;
    }
    const std::vector<std::string> header = mcscope::split(ref_lines[0], ',');
    const auto ranks_it = std::find(header.begin(), header.end(), "ranks");
    const size_t key_cols =
        ranks_it == header.end() ? header.size()
                                 : static_cast<size_t>(ranks_it - header.begin()) + 1;
    const size_t cells_per_row = header.size() - key_cols;

    auto key_of = [&](const std::vector<std::string> &cells) {
        std::string key;
        for (size_t c = 0; c < key_cols && c < cells.size(); ++c)
            key += cells[c] + ",";
        return key;
    };
    std::map<std::string, std::vector<std::string>> want;
    for (size_t i = 1; i < ref_lines.size(); ++i) {
        std::vector<std::string> cells = mcscope::split(ref_lines[i], ',');
        want[key_of(cells)] = std::move(cells);
    }
    check.points = want.size() * cells_per_row;

    auto note = [&](const std::string &what) {
        if (check.problem.empty())
            check.problem = what;
    };
    if (got_lines.empty() || got_lines[0] != ref_lines[0]) {
        check.failed = check.points;
        note("header differs");
        return check;
    }
    std::map<std::string, bool> seen;
    for (size_t i = 1; i < got_lines.size(); ++i) {
        const std::vector<std::string> cells = mcscope::split(got_lines[i], ',');
        const std::string key = key_of(cells);
        auto it = want.find(key);
        if (it == want.end() || seen[key]) {
            ++check.failed;
            note("unexpected row '" + got_lines[i] + "'");
            continue;
        }
        seen[key] = true;
        for (size_t c = key_cols; c < header.size(); ++c) {
            const std::string cell = c < cells.size() ? cells[c] : "<missing>";
            if (cell != it->second[c]) {
                ++check.failed;
                note("row '" + key + "' column '" + header[c] + "': got '" +
                     cell + "', want '" + it->second[c] + "'");
            }
        }
    }
    for (const auto &[key, cells] : want) {
        if (!seen[key]) {
            check.failed += cells_per_row;
            note("missing row '" + key + "'");
        }
    }
    if (byte_exact && got != reference && check.failed == 0) {
        check.failed = 1;
        note("cells match but the text differs (row order or line ends)");
    }
    check.failed = std::min(check.failed, check.points);
    return check;
}

bool
sameResult(const mcscope::RunResult &a, const mcscope::RunResult &b)
{
    auto same_bits = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    if (a.valid != b.valid || !same_bits(a.seconds, b.seconds) ||
        a.events != b.events || a.incrementalSolves != b.incrementalSolves ||
        a.fullSolves != b.fullSolves || a.calqueueOps != b.calqueueOps ||
        a.taggedSeconds.size() != b.taggedSeconds.size())
        return false;
    for (const auto &[tag, t] : a.taggedSeconds) {
        auto it = b.taggedSeconds.find(tag);
        if (it == b.taggedSeconds.end() || !same_bits(t, it->second))
            return false;
    }
    return true;
}

std::vector<size_t>
seededPermutation(size_t n, uint64_t seed)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    mcscope::Rng rng(seed);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

void
LayerTotals::takeTimes(const Tracer &tracer, size_t from)
{
    planParse = tracer.total("plan.parse", from);
    planExpand = tracer.total("plan.expand", from);
    digest = tracer.total("scenario.digest", from);
    lookup = tracer.total("runner.lookup", from);
    makeWorkload = tracer.total("kernels.make", from);
    machineBuild = tracer.total("machine.build", from);
    place = tracer.total("affinity.place", from);
    buildTasks = tracer.total("kernels.build_tasks", from);
    engineRun = tracer.total("engine.run", from);
    render = tracer.total("report.render", from);
    journalAppend = tracer.total("journal.append", from);
    journalLoad = tracer.total("journal.load", from);
    frame = tracer.total("transport.frame", from);
}

void
addLayerMetrics(Outcome &out, const std::vector<LayerTotals> &passes,
                const std::vector<double> &traced_wall,
                const std::vector<double> &untraced_wall)
{
    auto med = [&](double LayerTotals::*field) {
        std::vector<double> v;
        for (const LayerTotals &p : passes)
            v.push_back(p.*field);
        return median(v);
    };
    const LayerTotals last = passes.empty() ? LayerTotals{} : passes.back();
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

    out.add("plan.parse_s", med(&LayerTotals::planParse), "s");
    out.add("plan.expand_s", med(&LayerTotals::planExpand), "s");
    out.add("plan.specs", static_cast<double>(last.specs), "count");
    out.add("plan.points", static_cast<double>(last.points), "count");
    const double digest_s = med(&LayerTotals::digest);
    out.add("scenario.digest_s", digest_s, "s");
    out.add("scenario.digest_us_per_spec",
            ratio(digest_s * 1e6, static_cast<double>(last.specs)), "us");
    out.add("runner.lookup_s", med(&LayerTotals::lookup), "s");
    out.add("runner.hits", static_cast<double>(last.hits), "count");
    out.add("runner.misses", static_cast<double>(last.misses), "count");
    out.add("runner.hit_ratio",
            ratio(static_cast<double>(last.hits),
                  static_cast<double>(last.hits + last.misses)),
            "ratio");
    out.add("kernels.make_s", med(&LayerTotals::makeWorkload), "s");
    out.add("machine.build_s", med(&LayerTotals::machineBuild), "s");
    out.add("machine.resources", static_cast<double>(last.resources), "count");
    out.add("affinity.place_s", med(&LayerTotals::place), "s");
    out.add("kernels.build_tasks_s", med(&LayerTotals::buildTasks), "s");
    out.add("kernels.tasks", static_cast<double>(last.tasks), "count");
    const double run_s = med(&LayerTotals::engineRun);
    const double events = static_cast<double>(last.events);
    out.add("engine.run_s", run_s, "s");
    out.add("engine.events", events, "count");
    out.add("engine.events_per_s", ratio(events, run_s), "1/s");
    out.add("engine.allocator_reruns",
            static_cast<double>(last.allocatorReruns), "count");
    out.add("engine.incremental_solves",
            static_cast<double>(last.incrementalSolves), "count");
    out.add("engine.full_solves", static_cast<double>(last.fullSolves),
            "count");
    out.add("engine.solves_per_event",
            ratio(static_cast<double>(last.incrementalSolves + last.fullSolves),
                  events),
            "ratio");
    out.add("engine.calqueue_ops", static_cast<double>(last.calqueueOps),
            "count");
    out.add("engine.peak_active_flows",
            static_cast<double>(last.peakActiveFlows), "count");
    out.add("report.render_s", med(&LayerTotals::render), "s");
    out.add("report.bytes", static_cast<double>(last.reportBytes), "bytes");
    out.add("journal.append_s", med(&LayerTotals::journalAppend), "s");
    out.add("journal.appends", static_cast<double>(last.journalAppends),
            "count");
    out.add("journal.load_s", med(&LayerTotals::journalLoad), "s");
    out.add("transport.frame_s", med(&LayerTotals::frame), "s");
    out.add("transport.frames", static_cast<double>(last.frames), "count");
    out.add("transport.bytes", static_cast<double>(last.frameBytes), "bytes");
    const double traced = median(traced_wall);
    const double untraced = median(untraced_wall);
    out.notes.push_back(std::to_string(traced_wall.size()) + " traced and " +
                        std::to_string(untraced_wall.size()) +
                        " untraced passes");
    out.add("trace.wall_s", traced, "s");
    out.add("trace.untraced_wall_s", untraced, "s");
    out.add("trace.overhead_s", traced - untraced, "s");
}

} // namespace perfbench

namespace {

int
usage(const char *why)
{
    std::cerr << "mcscope_perfbench: " << why << "\n"
              << "usage: mcscope_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --bench-dir DIR --repo-root DIR "
                 "--work-dir DIR [--mcscope EXE] [--span-out FILE]\n";
    return 2;
}

bool
parseNumber(const std::string &text, double *out)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == text.c_str() || *end != '\0' || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
        std::cerr << "mcscope_perfbench: built as '" << PERFBENCH_BUILD_TYPE
                  << "'; timings are only reported from a Release build\n";
        return 2;
    }

    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        double num = 0.0;
        if (a == "--workload") {
            opts.workload = v;
        } else if (a == "--seed") {
            if (!parseNumber(v, &num) || num < 0 || num != std::floor(num))
                return usage("--seed needs a non-negative integer");
            opts.seed = static_cast<uint64_t>(num);
        } else if (a == "--seconds") {
            if (!parseNumber(v, &num) || num <= 0)
                return usage("--seconds needs a positive number");
            opts.seconds = num;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            opts.trace = v == "1";
        } else if (a == "--bench-dir") {
            opts.benchDir = v;
        } else if (a == "--repo-root") {
            opts.repoRoot = v;
        } else if (a == "--work-dir") {
            opts.workDir = v;
        } else if (a == "--mcscope") {
            opts.mcscopeExe = v;
        } else if (a == "--span-out") {
            opts.spanOut = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (opts.benchDir.empty() || opts.repoRoot.empty() || opts.workDir.empty())
        return usage("--bench-dir, --repo-root and --work-dir are required");

    Tracer tracer;
    Outcome out;
    try {
        if (opts.workload == "serve_journal") {
            if (opts.mcscopeExe.empty())
                return usage("serve_journal needs --mcscope");
            out = runServeWorkload(opts, tracer);
        } else if (opts.workload == "zoo_cold" ||
                   opts.workload == "paper_cold" ||
                   opts.workload == "grid_warm") {
            out = runGridWorkload(opts, tracer);
        } else {
            return usage(("unknown workload '" + opts.workload + "'").c_str());
        }
    } catch (const std::exception &e) {
        std::cerr << "mcscope_perfbench: " << e.what() << "\n";
        return 2;
    }

    const double fail_ratio =
        out.attempted ? static_cast<double>(out.failed) / out.attempted : 1.0;
    if (opts.trace) {
        out.add("fail_ratio", fail_ratio, "ratio");
        if (!opts.spanOut.empty() && !tracer.writeChromeTrace(opts.spanOut))
            out.problems.push_back("cannot write " + opts.spanOut);
    }
    const bool correct =
        out.attempted > 0 && out.failed == 0 && out.problems.empty();

    std::cout << "workload " << opts.workload << ", seed " << opts.seed
              << ", trace " << (opts.trace ? 1 : 0) << "\n";
    for (const std::string &line : out.notes)
        std::cout << "  " << line << "\n";
    std::cout << "  fail_ratio = " << fail_ratio << " (" << out.failed << " of "
              << out.attempted << " checked points)\n";
    for (const std::string &p : out.problems)
        std::cout << "  PROBLEM: " << p << "\n";
    mcscope::JsonValue metrics = mcscope::JsonValue::object();
    for (const Metric &m : out.metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", m.value);
        std::cout << "  " << m.name << " = " << buf << " " << m.unit << "\n";
        mcscope::JsonValue entry = mcscope::JsonValue::object();
        entry.set("value", mcscope::JsonValue::number(m.value));
        entry.set("unit", mcscope::JsonValue::str(m.unit));
        metrics.set(m.name, std::move(entry));
    }

    mcscope::JsonValue detail = mcscope::JsonValue::object();
    detail.set("build_type", mcscope::JsonValue::str(PERFBENCH_BUILD_TYPE));
    mcscope::JsonValue notes = mcscope::JsonValue::array();
    for (const std::string &line : out.notes)
        notes.append(mcscope::JsonValue::str(line));
    detail.set("notes", std::move(notes));
    mcscope::JsonValue problems = mcscope::JsonValue::array();
    for (const std::string &p : out.problems)
        problems.append(mcscope::JsonValue::str(p));
    detail.set("problems", std::move(problems));
    for (const auto &[name, values] : out.series) {
        mcscope::JsonValue arr = mcscope::JsonValue::array();
        for (double v : values)
            arr.append(mcscope::JsonValue::number(v));
        detail.set(name, std::move(arr));
    }
    std::cout << "detail: " << detail.dump() << "\n";

    mcscope::JsonValue result = mcscope::JsonValue::object();
    result.set("correct", mcscope::JsonValue::boolean(correct));
    result.set("attempted",
               mcscope::JsonValue::number(static_cast<double>(out.attempted)));
    result.set("failed",
               mcscope::JsonValue::number(static_cast<double>(out.failed)));
    result.set("metrics", std::move(metrics));
    std::cout << result.dump() << std::endl;
    return correct ? 0 : 1;
}
