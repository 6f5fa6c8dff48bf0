/**
 * @file
 * Internals the runner's units share; not part of the public API.
 * runner.cc holds runPlan() and the point executor, runner_cache.cc
 * the record codec and ResultCache, runner_worker.cc the manifest
 * format, fault plan and framed worker loop, and runner_shard.cc the
 * ShardExecutor.
 */

#ifndef MCSCOPE_CORE_RUNNER_INTERNAL_HH
#define MCSCOPE_CORE_RUNNER_INTERNAL_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>

#include "core/runner.hh"

namespace mcscope {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** How resolvePoint() obtained a result. */
enum class PointSource { MemoryHit, DiskHit, Simulated };

/** One resolved point. */
struct ResolvedPoint
{
    RunResult result;
    PointSource source = PointSource::Simulated;

    /** A hit re-simulated under audit; `result` is the fresh run. */
    bool validated = false;

    /**
     * Under audit, why the hit disagreed with the fresh run; empty
     * when it agreed.  A disagreeing fresh result is not stored.
     */
    std::string disagreement;
};

/**
 * The one point executor behind runPlan() and the shard worker: look
 * `digest` up in `cache` (null: no cache), simulate on a miss, and
 * store the fresh result.  Under audit (`audit` or MCSCOPE_AUDIT) a
 * hit is re-simulated and must agree with the fresh run bit for bit;
 * when it does not, the point says why in `disagreement`, and the
 * caller fails the run: runPlan() panics, a shard worker reports it.
 */
ResolvedPoint resolvePoint(const ScenarioSpec &spec,
                           const Workload &workload, uint64_t digest,
                           ResultCache *cache, bool audit);

/**
 * Telemetry of an executed plan: the run's wall time and one sample
 * per grid point (duplicate points repeat their spec's numbers).
 */
void fillPointTelemetry(const SweepPlan &plan,
                        const PlanResults &results, int jobs,
                        SweepTelemetry &telemetry);

/** The mcscope-shard-1 manifest asking a worker to run `points`. */
std::string encodeShardManifest(const SweepPlan &plan,
                                const std::deque<size_t> &points,
                                const ShardOptions &opts);

} // namespace mcscope

#endif // MCSCOPE_CORE_RUNNER_INTERNAL_HH
