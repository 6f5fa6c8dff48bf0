/**
 * @file
 * Sweep telemetry: per-grid-point wall time, simulated-event counts,
 * and worker-pool occupancy for the option/scaling sweeps.
 *
 * Every paper artifact is a grid of hundreds of simulations; when one
 * grid point is pathologically slow (a workload whose event count
 * explodes at some rank count) the final table gives no hint.  The
 * sweep runners (core/experiment.hh) fill one GridPointSample per
 * point when handed a SweepTelemetry, and the result can be printed
 * as a summary line or dumped as JSON for the bench-regression
 * tooling (tools/check_bench_regression.py reads the same
 * events-per-second notion).
 */

#ifndef MCSCOPE_CORE_TELEMETRY_HH
#define MCSCOPE_CORE_TELEMETRY_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace mcscope {

/** Measurements for one (rank count, option) grid point. */
struct GridPointSample
{
    int ranks = 0;

    /** Numactl option label, or "default" for scaling series. */
    std::string label;

    /** False for infeasible "-" cells (no simulation ran). */
    bool valid = false;

    /** Host wall time spent simulating this point, in seconds. */
    double wallSeconds = 0.0;

    /** Simulated makespan, in seconds. */
    double simSeconds = 0.0;

    /** Engine events processed. */
    uint64_t events = 0;

    /** Allocator reruns solved incrementally (dirty-set closure). */
    uint64_t incrementalSolves = 0;

    /** Whole-flow-set solves; always 0 (Engine::Stats::fullSolves). */
    uint64_t fullSolves = 0;

    /**
     * Incremental reruns served from the closure memo; 0 for points
     * restored from a cache or journal record (RunResult::memoHits).
     */
    uint64_t memoHits = 0;

    /** Finish-time operations (Engine::Stats::calqueueOps). */
    uint64_t calqueueOps = 0;

    /** 0 for every new run (Engine::Stats::calqueueResizes). */
    uint64_t calqueueResizes = 0;
};

/** Per-shard accounting for sharded batch runs (core/runner.hh). */
struct ShardSample
{
    int shard = 0;            ///< shard slot index
    uint64_t points = 0;      ///< points completed by this slot
    double busySeconds = 0.0; ///< summed per-point worker wall time
    uint64_t respawns = 0;    ///< worker relaunches after crash/hang
    std::string peer;         ///< "local#N" or remote peer address
    bool remote = false;      ///< worker attached over TCP (serve)
};

/** Telemetry for one whole sweep. */
struct SweepTelemetry
{
    /** Worker thread (or shard subprocess) budget the sweep ran with. */
    int jobs = 1;

    /** Wall time of the whole sweep (parallel section included). */
    double wallSeconds = 0.0;

    /** One sample per grid point, in (rank, option) order. */
    std::vector<GridPointSample> points;

    /** One sample per shard slot; empty for in-process sweeps. */
    std::vector<ShardSample> shards;

    /** Points satisfied from the resume journal (sharded runs). */
    uint64_t journaled = 0;

    /** Point re-assignments after worker deaths (sharded runs). */
    uint64_t retries = 0;

    /** Points abandoned after exhausting retries (sharded runs). */
    uint64_t gaps = 0;

    /** Engine events summed over all grid points. */
    uint64_t totalEvents() const;

    /** Summed per-point wall time (serial cost of the grid). */
    double busySeconds() const;

    /** Aggregate simulation throughput in engine events per second. */
    double eventsPerSecond() const;

    /**
     * Worker-pool occupancy in [0, 1]: busySeconds() spread over
     * jobs * wallSeconds.  1.0 means every worker was simulating the
     * whole time; low values mean stragglers or an over-provisioned
     * --jobs.
     */
    double occupancy() const;

    /** One-line human summary. */
    std::string summary() const;

    /** Dump the full telemetry as a JSON document. */
    void writeJson(std::ostream &os) const;
};

} // namespace mcscope

#endif // MCSCOPE_CORE_TELEMETRY_HH
