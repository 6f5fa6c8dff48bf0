/**
 * @file
 * Runner: the execute + cache layer of the scenario pipeline.
 *
 * runPlan() executes a SweepPlan's unique specs through the
 * parallel_for executor with a content-addressed ResultCache in
 * front: every spec's digest (core/scenario.hh) is looked up in
 * memory, then (when a cache directory is configured) on disk, and
 * only misses are simulated.  Identical points within one batch are
 * deduplicated by the plan; identical points across sweeps in one
 * process share the process cache; identical points across processes
 * share the on-disk store.
 *
 * Correctness before speed, always:
 *
 *  - A disk entry is trusted only if it parses, carries the matching
 *    digest, and has every required field; anything else counts as
 *    corrupt, is ignored, and the point is re-simulated (never a
 *    wrong number, at worst a slow one).
 *  - When auditing is on (RunnerOptions::audit, ShardOptions::audit
 *    or MCSCOPE_AUDIT=1), cache hits are *validated*, in process and
 *    in shard workers alike: the point is re-simulated under the
 *    auditor and the cached seconds -- and audit digest, when the
 *    entry recorded one -- must match bit-for-bit.  A mismatch fails
 *    the run: runPlan() panics; a shard worker reports it, and the
 *    supervisor records the point as an audit failure (a gap that is
 *    never retried), which batch and submit turn into exit status 1.
 *    Audit mode trades the cache's speed for an end-to-end proof that
 *    cached and fresh results agree.
 *
 * Every spec is executed with its registry workload
 * (makeWorkload(spec.workload)), and every registry workload has a
 * parameter signature, so every spec has a digest: there is no
 * uncacheable path.  A one-off parameterization that is not in the
 * registry runs through runExperiment() directly.
 *
 * runPlanSharded() layers fault tolerance on top: the plan's points
 * are partitioned across `mcscope worker` subprocesses, every
 * completed point is stored, fsync'd, in a ResultCache over the
 * write-ahead journal (core/journal.hh) before the sweep proceeds,
 * crashed or hung workers are respawned with exponential backoff, and
 * a point that repeatedly kills its worker degrades to a reported gap
 * instead of aborting the sweep.  `--resume <journal>` looks every
 * point up in the journal the same way and re-executes only what it
 * does not already vouch for.  The journal and the on-disk cache are
 * one kind of file with one writer, SweepJournal.
 */

#ifndef MCSCOPE_CORE_RUNNER_HH
#define MCSCOPE_CORE_RUNNER_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <poll.h>

#include "core/journal.hh"
#include "core/plan.hh"
#include "core/telemetry.hh"

namespace mcscope {

/** Cumulative counters for one ResultCache. */
struct CacheStats
{
    uint64_t memoryHits = 0;
    uint64_t diskHits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;

    /** Disk entries rejected (parse failure, digest mismatch, ...). */
    uint64_t corrupt = 0;
};

/**
 * Content-addressed store of RunResults, keyed by scenario digest:
 * an in-memory map in front of an optional record file
 * (core/journal.hh), which every lookup that misses memory consults
 * and every store appends to.  `ResultCache(dir)` keeps its file at
 * `<dir>/results.jsonl` without an fsync per store (DESIGN.md §9);
 * the sharded executor and the serve daemon put a ResultCache over
 * their write-ahead journal (DESIGN.md §10, §14).  Thread-safe, and
 * safe to share across processes.
 */
class ResultCache
{
  public:
    /** Memory-only cache. */
    ResultCache() = default;

    /** Memory + the record file under `dir` (both created when missing). */
    explicit ResultCache(std::string dir);

    /** Memory + an open record file such as a journal (null: memory only). */
    explicit ResultCache(std::unique_ptr<SweepJournal> file);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** One lookup outcome. */
    struct Hit
    {
        RunResult result;
        bool fromDisk = false;
    };

    /** Find a digest; memory first, then the record file. */
    std::optional<Hit> lookup(uint64_t digest);

    /** Record a result under a digest (memory, and the file when set). */
    void store(uint64_t digest, const RunResult &result);

    CacheStats stats() const;

  private:
    mutable std::mutex mu_;

    /**
     * Digest-keyed memory tier; accessed by .find()/operator[] only.
     * Never iterate it -- hash order is implementation-defined and
     * this unit feeds digest/serialization paths (lint rule DET-2).
     */
    std::unordered_map<uint64_t, RunResult> entries_;
    std::unique_ptr<SweepJournal> file_;
    CacheStats stats_;
};

/**
 * The MCSCOPE_CACHE_DIR environment variable: the on-disk cache
 * directory used when no --cache-dir is given; "" when unset or empty.
 */
std::string envCacheDir();

/**
 * The process-wide cache every sweep shares by default.  Memory-only
 * unless envCacheDir() names a directory, in which case results also
 * persist across processes.
 */
ResultCache &processCache();

/** Serialize / parse one cache entry (exposed for tests). */
JsonValue runResultToJson(uint64_t digest, const RunResult &result);
std::optional<RunResult> parseRunResult(const JsonValue &doc,
                                        uint64_t expect_digest);

/** 16-hex-digit spelling shared by cache and journal records. */
std::string digestHex(uint64_t digest);
std::optional<uint64_t> parseDigestHex(std::string_view s);

/** How to execute a plan. */
struct RunnerOptions
{
    /** Worker thread budget (core/parallel_for.hh). */
    int jobs = 1;

    /** Run under the invariant auditor; also validates cache hits. */
    bool audit = false;

    /**
     * Cache to consult; nullptr uses processCache().  Point it at a
     * local ResultCache to isolate a run (tests do).
     */
    ResultCache *cache = nullptr;

    /** Set to bypass the cache entirely (hits become simulations). */
    bool noCache = false;

    /** Optional per-grid-point telemetry (core/telemetry.hh). */
    SweepTelemetry *telemetry = nullptr;
};

/**
 * One deterministic fault-injection point, parsed from the
 * MCSCOPE_FAULT_INJECT environment variable.  Grammar:
 *
 *   MCSCOPE_FAULT_INJECT=kind:point[,kind:point...]
 *
 * where `kind` is `crash` (the worker SIGKILLs itself) or `hang` (the
 * worker stalls indefinitely) and `point` is the plan-wide spec index
 * the worker is about to execute when the fault fires.  Workers honor
 * this; supervisors ignore it, so the recovery path (retry, backoff,
 * gap degradation, resume) is exercisable in tests and CI without
 * flaky kill-timing.
 */
struct FaultSpec
{
    enum class Kind { Crash, Hang };
    Kind kind = Kind::Crash;
    uint64_t point = 0;
};

/**
 * Parse a fault-injection plan.  Empty input is an empty plan;
 * malformed input returns nullopt and sets `error`.
 */
std::optional<std::vector<FaultSpec>>
parseFaultPlan(const std::string &text, std::string *error = nullptr);

/** What one runPlan() call did. */
struct RunnerStats
{
    uint64_t points = 0;      ///< grid points (duplicates included)
    uint64_t uniqueSpecs = 0; ///< after plan deduplication
    uint64_t memoryHits = 0;
    uint64_t diskHits = 0;
    uint64_t misses = 0;       ///< includes noCache specs
    uint64_t corrupt = 0;      ///< disk entries rejected this run
    uint64_t validatedHits = 0; ///< audit-mode re-simulated hits
    uint64_t simulations = 0;   ///< engine runs actually executed

    uint64_t hits() const { return memoryHits + diskHits; }

    /** Percentage of unique specs served from cache, [0, 100]. */
    double hitRate() const;

    /** One-line human summary ("N points, M unique, ... hits"). */
    std::string summary() const;
};

/** What one sharded (multi-process) run did beyond RunnerStats. */
struct ShardRunStats
{
    uint64_t journaled = 0; ///< points satisfied from the resume journal
    uint64_t executed = 0;  ///< points completed by workers this run
    uint64_t retries = 0;   ///< point re-assignments after a worker died
    uint64_t crashes = 0;   ///< worker deaths (non-zero exit or signal)
    uint64_t timeouts = 0;  ///< workers killed for exceeding the timeout
    uint64_t gaps = 0;      ///< points abandoned (retries or audit)
    uint64_t auditFailures = 0; ///< gaps whose cache hit failed audit
    uint64_t workerCacheHits = 0; ///< cache hits reported by workers

    /** One-line human summary ("N from journal, M executed, ..."). */
    std::string summary() const;

    /** The counters as the "stats" object of serve's done frame. */
    JsonValue toJson() const;

    /** Counters from a toJson() object; a missing or bad key reads 0. */
    static ShardRunStats fromJson(const JsonValue &stats);
};

/** Results of one executed plan. */
struct PlanResults
{
    /** One result per plan spec (specs()[i] -> bySpec[i]). */
    std::vector<RunResult> bySpec;

    /** Wall seconds spent resolving each spec (lookup + simulate). */
    std::vector<double> specWallSeconds;

    /** Wall seconds for the whole plan (parallel section included). */
    double wallSeconds = 0.0;

    RunnerStats stats;

    /** Filled by runPlanSharded() only. */
    ShardRunStats shard;

    /** Result behind grid point `point` of `plan`. */
    const RunResult &at(const SweepPlan &plan, size_t point) const;
};

/**
 * Execute a plan: look up or simulate every unique spec, in parallel
 * when opts.jobs > 1, with deterministic result ordering.  Fills
 * opts.telemetry (one sample per *grid point*) when non-null.
 */
PlanResults runPlan(const SweepPlan &plan, const RunnerOptions &opts);

/**
 * View an executed plan's two innermost axes as the legacy
 * (rank x option) matrix for workload/impl/sublayer coordinate
 * (w, i, s) -- the Tables 2/3/7/9/11/13/14 shape.
 *
 * @param tag  -1 reports makespan, otherwise the tagged phase time.
 * @param m    machine variant (directory-size sweep point), 0 for
 *             plans without a variant axis.
 */
OptionSweepResult optionSweepSlice(const SweepPlan &plan,
                                   const PlanResults &results, size_t w,
                                   size_t i, size_t s, int tag = -1,
                                   size_t m = 0);

/** How to execute a plan across worker subprocesses (DESIGN.md §10). */
struct ShardOptions
{
    /** Worker subprocess count. */
    int shards = 1;

    /**
     * Per-point wall-clock budget in seconds; a worker that makes no
     * progress for this long is killed and its current point retried.
     * 0 disables the watchdog.
     */
    double pointTimeoutSeconds = 0.0;

    /**
     * How many times one point may take down a worker before the
     * point degrades to a gap (an invalid result in the output) and
     * the sweep moves on.  A gap is reported, never journaled, so a
     * later --resume retries it.
     */
    int maxRetries = 2;

    /** Base respawn delay; doubles per retry of the suspect point. */
    double backoffSeconds = 0.05;

    /** Write-ahead journal path; empty journals nothing. */
    std::string journalPath;

    /**
     * Journal to look points up in; the points it holds are served
     * from it, not re-run.  May equal journalPath.
     */
    std::string resumeFrom;

    /** Workers audit every point and validate their cache hits. */
    bool audit = false;

    /** On-disk result cache directory handed to workers. */
    std::string cacheDir;

    /**
     * Worker executable; empty resolves to the running binary
     * (util/subprocess.hh selfExecutablePath, which honors
     * MCSCOPE_WORKER_EXE).
     */
    std::string workerExe;
};

/**
 * Execute a plan across `opts.shards` worker subprocesses with
 * write-ahead journaling and crash recovery: every completed point is
 * journaled (fsync'd) before the sweep proceeds, dead or hung workers
 * are respawned with exponential backoff, and a point that keeps
 * killing workers becomes a gap instead of aborting the sweep.
 * Result ordering matches runPlan().  Fills `telemetry` (per-shard
 * occupancy included) when non-null.
 */
PlanResults runPlanSharded(const SweepPlan &plan,
                           const ShardOptions &opts,
                           SweepTelemetry *telemetry = nullptr);

/**
 * Worker side of the sharded executor and the only worker protocol
 * (`mcscope worker --framed`, and the body of `worker --connect` once
 * the socket is up): read length-prefixed manifest frames
 * (util/transport.hh) from `in_fd`, execute each manifest's points in
 * order, and answer with one record frame per point plus a done frame
 * per manifest.  The loop serves many manifests per connection and
 * exits 0 only on a clean EOF at a frame boundary.  Honors
 * MCSCOPE_FAULT_INJECT.  Returns a process exit code.
 */
int runFramedShardWorker(int in_fd, int out_fd);

/**
 * How long a worker may leave its manifest unread, or its done frame
 * unsent after its last record, before the executor drops it (its
 * owed points go through the death protocol).
 */
constexpr std::chrono::seconds kWorkerStallDeadline{3};

/**
 * Incremental supervisor behind runPlanSharded() and `mcscope serve`
 * (DESIGN.md §14).  Owns a work queue of not-yet-done plan points and
 * a set of worker channels -- local fork/exec subprocesses and/or
 * remote TCP workers attached with attachRemote() -- each one
 * non-blocking socket speaking the same framed manifest/record
 * protocol.  Manifests leave through a per-channel FrameOutbox
 * (util/transport.hh), so a worker that stops reading is dropped at
 * kWorkerStallDeadline instead of stalling the caller.  Callers drive it one poll
 * iteration at a time.  Each iteration is one poll(2) over the
 * caller's own fds and the executor's channels together, so the serve
 * daemon's listener, peers and clients wake it as promptly as a
 * worker's record does:
 *
 *   ShardExecutor ex(plan, opts);
 *   std::vector<pollfd> fds; // the caller's fds, if any
 *   while (!ex.finished()) {
 *       ex.pollOnce(200, fds);
 *       ex.drainCompletions();
 *   }
 *   PlanResults results = ex.take(telemetry);
 *
 * Crash recovery is channel-agnostic: a dead TCP worker degrades
 * exactly like a dead subprocess (its owed points are requeued, the
 * first still-owed point is the suspect, retries are bounded and
 * backoff-gated per point, and a point that keeps killing workers
 * becomes a gap).  The plan must outlive the executor.
 */
class ShardExecutor
{
  public:
    /**
     * Prepare a run.  `shared` is for the serve daemon: a store owned
     * by the caller that outlives this batch.  Every point it holds
     * completes instantly as a journal hit, and every point a worker
     * executes is stored into it.  When null, the executor looks
     * points up in opts.resumeFrom and stores them into
     * opts.journalPath, exactly like runPlanSharded().
     */
    ShardExecutor(const SweepPlan &plan, const ShardOptions &opts,
                  ResultCache *shared = nullptr);
    ~ShardExecutor();

    ShardExecutor(const ShardExecutor &) = delete;
    ShardExecutor &operator=(const ShardExecutor &) = delete;

    /**
     * Adopt a connected framed-worker socket (takes ownership of
     * `fd`).  The worker joins the dispatch pool next pollOnce().
     */
    void attachRemote(int fd, const std::string &peer);

    /**
     * True once every plan point is done (journal hit, record, or
     * gap) and every busy worker's trailing done frame was read, or
     * its wait passed kWorkerStallDeadline.
     */
    bool finished() const;

    /**
     * One supervisor iteration: dispatch manifests to idle channels,
     * then make one poll(2) over `fds` (the caller's entries) with the
     * live channels appended after them, consume records, and run the
     * death/retry protocol for dead channels.  `fds` comes back with
     * the caller's entries only, their revents set by that poll.
     *
     * The poll does not wait when completions are waiting to be
     * drained or the plan is finished; otherwise it waits for
     * readiness, for at most `max_wait_ms` (>= 0) and no later than
     * the nearest watchdog or backoff deadline.
     */
    void pollOnce(int max_wait_ms, std::vector<pollfd> &fds);

    /** One point that completed since the last drain. */
    struct Completion
    {
        size_t spec = 0;          ///< plan spec index
        double wallSeconds = 0.0; ///< worker-side wall time (0 for hits)
        bool fromJournal = false; ///< satisfied by the journal, not run
    };

    /** Completions since the last call (journal hits included). */
    std::vector<Completion> drainCompletions();

    /** Per-spec content digests (SweepPlan::digests()). */
    const std::vector<uint64_t> &digests() const;

    /** Result for a completed spec (invalid RunResult for gaps). */
    const RunResult &resultFor(size_t spec) const;

    /**
     * Detach every live remote worker channel and return (fd, peer)
     * pairs, ownership included -- the serve daemon parks them
     * between batches.  Call when finished(), when no live channel is
     * busy.
     */
    std::vector<std::pair<int, std::string>> releaseRemotes();

    /**
     * Finalize: close every channel (a local worker exits on the EOF
     * and is reaped), assert every point is resolved, and return the
     * results (fills `telemetry` when non-null).  The executor is
     * spent afterwards.
     */
    PlanResults take(SweepTelemetry *telemetry = nullptr);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace mcscope

#endif // MCSCOPE_CORE_RUNNER_HH
