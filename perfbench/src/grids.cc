/**
 * @file
 * The in-process grid workloads.
 *
 *   zoo_cold    the zoo grid (specs/zoo.json), cache bypassed
 *   paper_cold  the paper's option-sweep grids, cache bypassed
 *   grid_warm   both, every point served from an on-disk cache that
 *               set-up filled
 *
 * One pass reads and expands the batch specs, resolves every spec
 * through runPlan() (jobs = 1) in a seed-permuted order, maps the
 * results back to the spec file's grid by digest, and renders the
 * CSV that `mcscope batch --csv` prints.  The rendered CSV must match
 * the recorded reference byte for byte.
 *
 * A traced pass repeats runPlan's per-spec call sequence and
 * runExperimentOn's by hand, with a span around each library call,
 * and must reproduce the untraced pass's results bit for bit.
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "affinity/placement.hh"
#include "bench.hh"
#include "core/plan.hh"
#include "core/registry.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "machine/machine.hh"
#include "machine/registry.hh"
#include "machine/serialize.hh"
#include "simmpi/comm.hh"
#include "util/fdio.hh"
#include "util/json.hh"

namespace perfbench {

using namespace mcscope;
namespace fs = std::filesystem;

std::string
readFile(const std::string &path)
{
    std::string text;
    if (!readWholeFile(path, text))
        throw std::runtime_error("cannot read " + path);
    return text;
}

SweepPlan
parsePlan(const std::string &text, const std::string &what, Tracer *tracer)
{
    std::string error;
    std::optional<JsonValue> doc;
    {
        ScopedSpan span(tracer, "plan.parse");
        doc = parseJson(text, &error);
    }
    if (!doc)
        throw std::runtime_error(what + ": " + error);
    std::optional<SweepPlan> plan;
    {
        ScopedSpan span(tracer, "plan.expand");
        plan = SweepPlan::fromJson(*doc, &error);
    }
    if (!plan)
        throw std::runtime_error(what + ": " + error);
    return std::move(*plan);
}

std::vector<uint64_t>
specDigests(const SweepPlan &plan, Tracer *tracer)
{
    ScopedSpan span(tracer, "scenario.digest");
    std::vector<uint64_t> out;
    out.reserve(plan.specs().size());
    for (const ScenarioSpec &spec : plan.specs())
        out.push_back(spec.digest());
    return out;
}

namespace {

struct GridFile
{
    const char *name;
    const char *spec;      ///< relative to the benchmark directory
    const char *reference; ///< `mcscope batch --csv` output at the seed
};

const GridFile kZoo{"zoo", "specs/zoo.json", "reference/zoo.csv"};
const GridFile kPaperLongs{"paper_longs", "specs/paper_longs.json",
                           "reference/paper_longs.csv"};
const GridFile kPaperDmz{"paper_dmz", "specs/paper_dmz.json",
                         "reference/paper_dmz.csv"};
const GridFile kDirsweep{"dirsweep", "specs/dirsweep.json",
                         "reference/dirsweep.csv"};

std::vector<GridFile>
gridsFor(const std::string &workload)
{
    if (workload == "zoo_cold")
        return {kZoo};
    if (workload == "paper_cold")
        return {kPaperLongs, kPaperDmz, kDirsweep};
    return {kZoo, kPaperLongs, kPaperDmz, kDirsweep};
}

/** One batch spec file, expanded and permuted by set-up. */
struct Grid
{
    GridFile file;
    std::string specPath;
    std::string reference;

    /** The plan's specs in seed-permuted order: what passes execute. */
    SweepPlan exec;

    /** Spec-file spec index -> exec spec index (matched by digest). */
    std::vector<size_t> execOf;
};

/**
 * Load the benchmark's machine directory.  The first call registers
 * the machines; later set-ups parse the same files and confirm the
 * registry already holds them.
 */
void
loadMachines(const std::string &dir, bool first)
{
    if (first) {
        const std::string problem =
            MachineRegistry::instance().loadDirectory(dir);
        if (!problem.empty())
            throw std::runtime_error(problem);
        return;
    }
    std::vector<std::string> files;
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        if (e.path().extension() == ".json")
            files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    for (const std::string &path : files) {
        std::string error;
        std::optional<JsonValue> doc = parseJson(readFile(path), &error);
        std::optional<MachineConfig> cfg =
            doc ? parseMachineConfig(*doc, &error) : std::nullopt;
        if (!cfg || !MachineRegistry::instance().find(cfg->name))
            throw std::runtime_error(path + ": " + error);
    }
}

std::vector<Grid>
setUp(const Options &opts, const std::vector<GridFile> &files, bool first)
{
    loadMachines(opts.benchDir + "/machines", first);
    std::vector<Grid> grids;
    for (size_t gi = 0; gi < files.size(); ++gi) {
        Grid g;
        g.file = files[gi];
        g.specPath = opts.benchDir + "/" + g.file.spec;
        g.reference = readFile(opts.benchDir + "/" + g.file.reference);
        const SweepPlan plan = parsePlan(readFile(g.specPath), g.specPath,
                                         nullptr);
        const size_t n = plan.specs().size();
        const std::vector<size_t> order =
            seededPermutation(n, opts.seed * 0x9e3779b97f4a7c15ULL + gi);
        std::vector<ScenarioSpec> permuted;
        permuted.reserve(n);
        for (size_t k : order)
            permuted.push_back(plan.specs()[k]);
        g.exec = SweepPlan::fromSpecs(permuted);

        const std::vector<uint64_t> want = specDigests(plan, nullptr);
        const std::vector<uint64_t> have = specDigests(g.exec, nullptr);
        std::unordered_map<uint64_t, size_t> exec_index;
        for (size_t i = 0; i < have.size(); ++i)
            exec_index.emplace(have[i], i);
        g.execOf.resize(n);
        for (size_t c = 0; c < n; ++c) {
            auto it = exec_index.find(want[c]);
            if (it == exec_index.end())
                throw std::runtime_error(g.specPath +
                                         ": permuted plan lost a spec");
            g.execOf[c] = it->second;
        }
        grids.push_back(std::move(g));
    }
    return grids;
}

/**
 * Simulate every grid into an on-disk cache under `dir` (points the
 * grids share are simulated once).
 */
void
fillCache(const std::vector<Grid> &grids, const std::string &dir)
{
    ResultCache cache(dir);
    for (const Grid &g : grids) {
        RunnerOptions ro;
        ro.cache = &cache;
        runPlan(g.exec, ro);
    }
}

/** Results of an exec-order run, re-indexed onto the spec file's plan. */
PlanResults
remap(const Grid &g, const SweepPlan &plan, const PlanResults &exec)
{
    PlanResults out;
    const size_t n = plan.specs().size();
    out.bySpec.resize(n);
    out.specWallSeconds.resize(n);
    for (size_t c = 0; c < n; ++c) {
        out.bySpec[c] = exec.bySpec[g.execOf[c]];
        out.specWallSeconds[c] = exec.specWallSeconds[g.execOf[c]];
    }
    out.wallSeconds = exec.wallSeconds;
    out.stats = exec.stats;
    return out;
}

/** What one pass over all grids produced. */
struct Pass
{
    double wall = 0.0;
    std::vector<double> pointMs;               ///< placed points only
    std::vector<std::vector<RunResult>> exec;  ///< per grid, exec order
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t misses = 0;
    std::string problem;
};

void
checkCsv(Pass &pass, const Grid &g, const std::string &csv)
{
    const CsvCheck check = compareBatchCsv(csv, g.reference, true);
    pass.attempted += check.points;
    pass.failed += check.failed;
    if (!check.problem.empty() && pass.problem.empty())
        pass.problem = g.file.name + std::string(": ") + check.problem;
}

Pass
untracedPass(const std::vector<Grid> &grids, bool warm,
             const std::string &cache_dir)
{
    Pass pass;
    for (const Grid &g : grids) {
        Clock::time_point t0 = Clock::now();
        const SweepPlan plan = parsePlan(readFile(g.specPath), g.specPath,
                                         nullptr);
        pass.wall += secondsSince(t0);

        t0 = Clock::now();
        std::optional<ResultCache> cache;
        if (warm)
            cache.emplace(cache_dir);
        else
            cache.emplace();
        RunnerOptions ro;
        ro.cache = &*cache;
        ro.noCache = !warm;
        PlanResults exec = runPlan(g.exec, ro);
        std::ostringstream csv;
        renderBatchResults(plan, remap(g, plan, exec), true, csv);
        pass.wall += secondsSince(t0);

        checkCsv(pass, g, csv.str());
        pass.misses += exec.stats.misses;
        for (size_t i = 0; i < exec.bySpec.size(); ++i) {
            if (exec.bySpec[i].valid)
                pass.pointMs.push_back(exec.specWallSeconds[i] * 1e3);
        }
        pass.exec.push_back(std::move(exec.bySpec));
    }
    return pass;
}

/** runExperimentOn's call sequence, one span per layer call. */
RunResult
simulateTraced(const ScenarioSpec &spec, const Workload &workload,
               Tracer &tracer, LayerTotals &lt)
{
    const ExperimentConfig cfg = spec.toExperiment();
    std::unique_ptr<Machine> machine;
    {
        ScopedSpan span(&tracer, "machine.build");
        machine = std::make_unique<Machine>(cfg.machine);
    }
    lt.resources += static_cast<uint64_t>(machine->engine().resourceCount());

    std::optional<Placement> placement;
    std::unique_ptr<MpiRuntime> rt;
    {
        ScopedSpan span(&tracer, "affinity.place");
        placement = Placement::create(cfg.machine, machine->topology(),
                                      cfg.option, cfg.ranks);
        if (placement) {
            rt = std::make_unique<MpiRuntime>(*machine, *placement, cfg.impl,
                                              cfg.sublayer);
            if (cfg.latencyNoise != 1.0)
                rt->setLatencyNoiseFactor(cfg.latencyNoise);
        }
    }
    RunResult res;
    if (!placement)
        return res;
    {
        ScopedSpan span(&tracer, "kernels.build_tasks");
        workload.buildTasks(*machine, *rt);
    }
    Engine &engine = machine->engine();
    lt.tasks += static_cast<uint64_t>(engine.taskCount());
    {
        ScopedSpan span(&tracer, "engine.run");
        engine.run();
    }
    res.valid = true;
    res.seconds = engine.makespan();
    for (int tag = 0; tag <= 8; ++tag) {
        const SimTime t = engine.maxTaggedTime(tag);
        if (t > 0.0)
            res.taggedSeconds[tag] = t;
    }
    res.events = engine.eventCount();
    const Engine::Stats stats = engine.stats();
    res.incrementalSolves = stats.incrementalSolves;
    res.fullSolves = stats.fullSolves;
    res.calqueueOps = stats.calqueueOps;
    res.calqueueResizes = stats.calqueueResizes;

    lt.events += stats.events;
    lt.allocatorReruns += stats.allocatorReruns;
    lt.incrementalSolves += stats.incrementalSolves;
    lt.fullSolves += stats.fullSolves;
    lt.calqueueOps += stats.calqueueOps;
    lt.peakActiveFlows = std::max(lt.peakActiveFlows, stats.peakActiveFlows);
    return res;
}

/**
 * runPlan's per-spec sequence (workload, digest, lookup, simulate)
 * over the exec plan, spans around every call; results are compared
 * bit for bit with the untraced pass.
 */
Pass
tracedPass(const std::vector<Grid> &grids, bool warm,
           const std::string &cache_dir, const Pass &untraced,
           Tracer &tracer, LayerTotals &lt)
{
    Pass pass;
    const Clock::time_point start = Clock::now();
    int64_t point_id = 0;
    for (size_t gi = 0; gi < grids.size(); ++gi) {
        const Grid &g = grids[gi];
        ScopedSpan grid_span(&tracer, g.file.name);
        const SweepPlan plan = parsePlan(readFile(g.specPath), g.specPath,
                                         &tracer);
        lt.specs += plan.specs().size();
        lt.points += plan.pointCount();

        std::optional<ResultCache> cache;
        if (warm)
            cache.emplace(cache_dir);
        const size_t n = g.exec.specs().size();
        PlanResults exec;
        exec.bySpec.resize(n);
        exec.specWallSeconds.resize(n);
        for (size_t i = 0; i < n; ++i) {
            const ScenarioSpec &spec = g.exec.specs()[i];
            ScopedSpan point_span(&tracer, "point", point_id++);
            const Clock::time_point t0 = Clock::now();
            std::unique_ptr<Workload> workload;
            {
                ScopedSpan span(&tracer, "kernels.make");
                workload = makeWorkload(spec.workload);
            }
            std::optional<uint64_t> digest;
            {
                ScopedSpan span(&tracer, "scenario.digest");
                digest = spec.digestWith(*workload);
            }
            std::optional<ResultCache::Hit> hit;
            if (cache && digest) {
                ScopedSpan span(&tracer, "runner.lookup");
                hit = cache->lookup(*digest);
            }
            if (hit) {
                ++lt.hits;
                exec.bySpec[i] = hit->result;
            } else {
                ++lt.misses;
                exec.bySpec[i] = simulateTraced(spec, *workload, tracer, lt);
            }
            exec.specWallSeconds[i] = secondsSince(t0);
            if (!sameResult(exec.bySpec[i], untraced.exec[gi][i]) &&
                pass.problem.empty())
                pass.problem = std::string(g.file.name) +
                               ": traced result differs from runPlan for " +
                               spec.canonicalText();
        }
        std::ostringstream csv;
        {
            ScopedSpan span(&tracer, "report.render");
            renderBatchResults(plan, remap(g, plan, exec), true, csv);
        }
        const std::string text = csv.str();
        lt.reportBytes += text.size();
        checkCsv(pass, g, text);
    }
    pass.wall = secondsSince(start);
    return pass;
}

} // namespace

Outcome
runGridWorkload(const Options &opts, Tracer &tracer)
{
    const bool warm = opts.workload == "grid_warm";
    const std::vector<GridFile> files = gridsFor(opts.workload);
    Outcome out;

    // Set-up runs several times so setup_s is a median; each warm
    // set-up fills a fresh cache and the last one serves the passes.
    const int setups = warm ? 3 : 5;
    PassSamples samples;
    std::vector<Grid> grids;
    std::string cache_dir;
    for (int rep = 0; rep < setups; ++rep) {
        const std::string dir =
            opts.workDir + "/cache-" + std::to_string(rep);
        const Clock::time_point t0 = Clock::now();
        grids = setUp(opts, files, rep == 0);
        if (warm)
            fillCache(grids, dir);
        samples.setups.push_back(secondsSince(t0));
        if (!cache_dir.empty())
            fs::remove_all(cache_dir);
        cache_dir = warm ? dir : "";
    }

    std::vector<double> traced_walls;
    std::vector<LayerTotals> layers;
    uint64_t misses = 0;
    const Clock::time_point start = Clock::now();
    do {
        Pass u = untracedPass(grids, warm, cache_dir);
        samples.addPass(u.wall, u.pointMs);
        out.attempted += u.attempted;
        out.failed += u.failed;
        misses += u.misses;
        if (!u.problem.empty() && out.problems.empty())
            out.problems.push_back(u.problem);
        if (!opts.trace)
            continue;

        const size_t mark = tracer.mark();
        LayerTotals lt;
        Pass t = tracedPass(grids, warm, cache_dir, u, tracer, lt);
        lt.takeTimes(tracer, mark);
        layers.push_back(lt);
        traced_walls.push_back(t.wall);
        out.attempted += t.attempted;
        out.failed += t.failed;
        if (!t.problem.empty() && out.problems.empty())
            out.problems.push_back(t.problem);
        // Keep the spans of the first two traced passes for the trace
        // file; later passes only contribute their totals.
        if (layers.size() > 2)
            tracer.truncate(mark);
    } while (secondsSince(start) < opts.seconds);

    if (warm && misses != 0)
        out.problems.push_back(std::to_string(misses) +
                               " cache misses in warm passes");
    if (!cache_dir.empty())
        fs::remove_all(cache_dir);

    if (opts.trace)
        addLayerMetrics(out, layers, traced_walls, samples.walls);
    else
        samples.report(out, peakRssMb());
    return out;
}

} // namespace perfbench
