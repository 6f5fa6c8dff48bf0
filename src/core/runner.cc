#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <sstream>

#include "core/parallel_for.hh"
#include "core/registry.hh"
#include "core/runner_internal.hh"
#include "sim/audit.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mcscope {

double
RunnerStats::hitRate() const
{
    if (uniqueSpecs == 0)
        return 0.0;
    return 100.0 * static_cast<double>(hits()) /
           static_cast<double>(uniqueSpecs);
}

std::string
RunnerStats::summary() const
{
    std::string out = std::to_string(points) + " points (" +
                      std::to_string(uniqueSpecs) + " unique): " +
                      std::to_string(hits()) + " hits (" +
                      std::to_string(memoryHits) + " memory + " +
                      std::to_string(diskHits) + " disk), " +
                      std::to_string(misses) + " misses, " +
                      std::to_string(simulations) + " simulations, " +
                      formatFixed(hitRate(), 0) + "% cached";
    if (corrupt)
        out += ", " + std::to_string(corrupt) +
               " corrupt entries re-simulated";
    if (validatedHits)
        out += ", " + std::to_string(validatedHits) +
               " hits audit-validated";
    return out;
}

const RunResult &
PlanResults::at(const SweepPlan &plan, size_t point) const
{
    return bySpec[plan.specIndex(point)];
}

namespace {

/**
 * Why a cached result fails audit validation against a fresh run of
 * `spec`; empty when the two agree bit for bit.
 */
std::string
auditDisagreement(const ScenarioSpec &spec, const RunResult &cached,
                  const RunResult &fresh)
{
    std::ostringstream why;
    if (cached.valid != fresh.valid || cached.seconds != fresh.seconds)
        why << "cache entry disagrees with fresh simulation for "
            << spec.canonicalText() << ": cached " << cached.seconds
            << " s vs fresh " << fresh.seconds << " s";
    else if (cached.audited && fresh.audited &&
             cached.auditDigest != fresh.auditDigest)
        why << "cached audit digest " << digestHex(cached.auditDigest)
            << " != fresh audit digest " << digestHex(fresh.auditDigest)
            << " for " << spec.canonicalText();
    return why.str();
}

} // namespace

ResolvedPoint
resolvePoint(const ScenarioSpec &spec, const Workload &workload,
             uint64_t digest, ResultCache *cache, bool audit)
{
    audit = audit || auditRequestedByEnv();
    ResolvedPoint point;
    std::optional<ResultCache::Hit> hit;
    if (cache)
        hit = cache->lookup(digest);
    if (hit) {
        point.source = hit->fromDisk ? PointSource::DiskHit
                                     : PointSource::MemoryHit;
        if (!audit) {
            point.result = std::move(hit->result);
            return point;
        }
    }
    ExperimentConfig cfg = spec.toExperiment();
    cfg.audit = audit;
    point.result = runExperiment(cfg, workload);
    if (hit) {
        // Audit mode validates every hit end-to-end: the cached
        // numbers must equal a fresh simulation's.  A suspect record
        // is left as it is for inspection, not stored over.
        point.validated = true;
        point.disagreement =
            auditDisagreement(spec, hit->result, point.result);
        if (!point.disagreement.empty())
            return point;
    }
    if (cache)
        cache->store(digest, point.result);
    return point;
}

void
fillPointTelemetry(const SweepPlan &plan, const PlanResults &results,
                   int jobs, SweepTelemetry &telemetry)
{
    telemetry.jobs = jobs;
    telemetry.wallSeconds = results.wallSeconds;
    telemetry.points.assign(plan.pointCount(), {});
    for (size_t p = 0; p < plan.pointCount(); ++p) {
        const size_t si = plan.specIndex(p);
        const ScenarioSpec &spec = plan.specs()[si];
        const RunResult &r = results.bySpec[si];
        GridPointSample &sample = telemetry.points[p];
        sample.ranks = spec.ranks;
        sample.label = spec.option.label;
        sample.valid = r.valid;
        sample.wallSeconds = results.specWallSeconds[si];
        sample.simSeconds = r.valid ? r.seconds : 0.0;
        sample.events = r.events;
        sample.incrementalSolves = r.incrementalSolves;
        sample.fullSolves = r.fullSolves;
        sample.memoHits = r.memoHits;
        sample.componentSolves = r.componentSolves;
        sample.calqueueOps = r.calqueueOps;
        sample.calqueueResizes = r.calqueueResizes;
    }
}

PlanResults
runPlan(const SweepPlan &plan, const RunnerOptions &opts)
{
    ResultCache &cache = opts.cache ? *opts.cache : processCache();
    ResultCache *const lookup_cache = opts.noCache ? nullptr : &cache;
    const size_t n = plan.specs().size();

    PlanResults out;
    out.bySpec.assign(n, RunResult{});
    out.specWallSeconds.assign(n, 0.0);
    out.stats.points = plan.pointCount();
    out.stats.uniqueSpecs = n;

    std::atomic<uint64_t> memory_hits{0}, disk_hits{0}, misses{0},
        validated{0};
    const CacheStats cache_before = cache.stats();

    const Clock::time_point plan_start = Clock::now();
    parallelFor(n, opts.jobs, [&](size_t i) {
        const ScenarioSpec &spec = plan.specs()[i];
        const Clock::time_point spec_start = Clock::now();

        const std::unique_ptr<Workload> workload =
            makeWorkload(spec.workload);
        ResolvedPoint point =
            resolvePoint(spec, *workload, plan.digest(i, *workload),
                         lookup_cache, opts.audit);
        switch (point.source) {
          case PointSource::MemoryHit: ++memory_hits; break;
          case PointSource::DiskHit: ++disk_hits; break;
          case PointSource::Simulated: ++misses; break;
        }
        if (!point.disagreement.empty())
            MCSCOPE_PANIC(point.disagreement);
        if (point.validated)
            ++validated;
        out.bySpec[i] = std::move(point.result);
        out.specWallSeconds[i] = secondsSince(spec_start);
    });
    out.wallSeconds = secondsSince(plan_start);

    out.stats.memoryHits = memory_hits.load();
    out.stats.diskHits = disk_hits.load();
    out.stats.misses = misses.load();
    out.stats.validatedHits = validated.load();
    out.stats.simulations = out.stats.misses + out.stats.validatedHits;
    out.stats.corrupt = cache.stats().corrupt - cache_before.corrupt;

    if (opts.telemetry)
        fillPointTelemetry(plan, out, std::max(1, opts.jobs),
                           *opts.telemetry);
    return out;
}

OptionSweepResult
optionSweepSlice(const SweepPlan &plan, const PlanResults &results,
                 size_t w, size_t i, size_t s, int tag, size_t m)
{
    MCSCOPE_ASSERT(plan.hasAxes(),
                   "optionSweepSlice needs an axes-based plan");
    const SweepAxes &axes = plan.axes();
    OptionSweepResult out;
    out.rankCounts = axes.rankCounts;
    out.options = axes.options;
    out.seconds.assign(
        axes.rankCounts.size(),
        std::vector<double>(axes.options.size(), 0.0));
    for (size_t r = 0; r < axes.rankCounts.size(); ++r) {
        for (size_t o = 0; o < axes.options.size(); ++o) {
            const RunResult &res =
                results.at(plan, plan.pointIndex(w, i, s, r, o, m));
            if (!res.valid) {
                out.seconds[r][o] =
                    std::numeric_limits<double>::quiet_NaN();
            } else {
                out.seconds[r][o] =
                    tag < 0 ? res.seconds : res.tagged(tag);
            }
        }
    }
    return out;
}

} // namespace mcscope
