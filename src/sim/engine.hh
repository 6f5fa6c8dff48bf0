/**
 * @file
 * The flow-level discrete-event simulation engine.
 *
 * The engine owns a set of resources (capacities in units/s) and a set
 * of tasks (programs of primitives, each compiled into a flat array
 * before run()).  Active Work primitives
 * become fluid flows whose rates are the max-min fair allocation across
 * their resource paths; the engine advances simulated time from one
 * flow completion / delay expiry to the next, re-running the allocator
 * whenever the active flow set changes.
 *
 * This fluid abstraction is the substitute for real multi-core Opteron
 * hardware: contention for a socket's memory controller, congestion on
 * HyperTransport ladder rungs, and serialization at lock services all
 * emerge from shared-resource fair sharing rather than from
 * cycle-accurate modeling.
 *
 * Steady-state complexity (DESIGN §13): flow state is a structure of
 * arrays over stable slots, and each time step is flat scans of it:
 * one min over the absolute finish times finds the next flow finish,
 * and one fused pass moves units, drains and detects completions.  A
 * flow arrival/departure re-solves only the connected components of
 * flows reachable from the resources it touched (the dirty set), and
 * a component whose ordered input was solved before takes its rates
 * from a per-engine memo instead of being solved again.
 */

#ifndef MCSCOPE_SIM_ENGINE_HH
#define MCSCOPE_SIM_ENGINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/fairshare.hh"
#include "sim/prim.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace mcscope {

class Auditor;
struct AuditedFlow;

/**
 * Number of phase-tag slots tracked per task.  Tags are small dense
 * integers (kernels/workload.hh uses 0-6, tests go up to 9), so
 * per-task tagged time lives in a flat array instead of a map.
 */
constexpr int kPhaseTagSlots = 16;

/** Aggregate statistics for one resource over a run. */
struct ResourceStats
{
    /** Total units moved through the resource. */
    double unitsMoved = 0.0;

    /** Peak number of flows occupying the resource at one time. */
    int peakConcurrency = 0;
};

/** Category tags let workloads attribute task time to program phases. */
using PhaseTag = int;

/** One observable simulation event, for timeline tracing. */
struct TraceEvent
{
    enum class Kind
    {
        FlowStart,
        FlowEnd,
        DelayEnd,
        TaskFinish,
    };

    Kind kind = Kind::FlowStart;
    SimTime time = 0.0;
    int task = -1;       ///< owning task (first owner for joint flows)
    PhaseTag tag = 0;    ///< phase tag of the primitive
    double amount = 0.0; ///< flow amount (FlowStart/FlowEnd only)

    /** Resource path of the flow (FlowStart/FlowEnd only). */
    PathVec path;
};

/** Display name of a trace-event kind. */
const char *traceEventKindName(TraceEvent::Kind kind);

/**
 * Flow-level discrete-event simulator.
 *
 * Typical use: add resources, add tasks, run(), then query makespan,
 * per-task finish times, per-task tagged time, and resource
 * utilization.
 */
class Engine
{
  public:
    Engine();
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Register a resource; capacity must be positive. */
    ResourceId addResource(std::string name, double capacity);

    /**
     * Register a task program; returns the task index.  The program is
     * compiled into one flat array of steps, and each Work's (path,
     * rate cap) -- a carrier rendezvous transfer's included -- is
     * interned here, in build order, so run() never hashes a flow.
     */
    int addTask(TaskProgram program);

    /** Number of registered tasks. */
    int taskCount() const { return static_cast<int>(tasks_.size()); }

    /** Number of registered resources. */
    int resourceCount() const
    {
        return static_cast<int>(capacities_.size());
    }

    /**
     * Run the simulation to completion.  Panics on deadlock (tasks
     * blocked on rendezvous/barriers that can never be satisfied).
     */
    void run();

    /** Current simulated time (the makespan after run()). */
    SimTime now() const { return now_; }

    /** Completion time of a task (valid after run()). */
    SimTime taskFinishTime(int task) const;

    /** Latest task completion time. */
    SimTime makespan() const;

    /** Time task `task` spent in primitives tagged `tag`. */
    SimTime taggedTime(int task, PhaseTag tag) const;

    /** Maximum over tasks of taggedTime(task, tag). */
    SimTime maxTaggedTime(PhaseTag tag) const;

    /** Units moved through a resource over the whole run. */
    double resourceUnitsMoved(ResourceId r) const;

    /** Peak concurrent-flow count on a resource over the whole run. */
    int resourcePeakConcurrency(ResourceId r) const;

    /** Mean utilization of a resource over the makespan, in [0, 1]. */
    double resourceUtilization(ResourceId r) const;

    /** Resource display name. */
    const std::string &resourceName(ResourceId r) const;

    /** Resource capacity in units/s. */
    double resourceCapacity(ResourceId r) const;

    /** Number of processed engine events (for engine benchmarks). */
    uint64_t eventCount() const { return events_; }

    /**
     * Run-level engine counters, cheap enough to maintain
     * unconditionally.  They answer "what did the engine actually do"
     * questions (was the allocator rerun per event? how many closure
     * solves did the memo absorb?) without a profiler.
     */
    struct Stats
    {
        /**
         * Program steps taken: one per primitive issued plus one per
         * task completion (same as eventCount()).
         */
        uint64_t events = 0;

        /** Max-min allocator executions. */
        uint64_t allocatorReruns = 0;

        /**
         * Times the next-flow-finish tracker hit float round-off and
         * fell back to the direct O(flows) scan.
         */
        uint64_t fallbackScans = 0;

        /** Main-loop time steps taken. */
        uint64_t timeSteps = 0;

        /**
         * Allocator reruns that re-solved only the dirty components
         * (the flows reachable from resources whose flow set
         * changed), directly or from the closure memo.  Every rerun
         * is one, so this equals allocatorReruns.
         */
        uint64_t incrementalSolves = 0;

        /**
         * Whole-flow-set solves.  Always 0: the engine has one,
         * incremental, solver path.  Kept because result records and
         * telemetry carry it as `full_solves`.
         */
        uint64_t fullSolves = 0;

        /**
         * Dirty components whose rates came from the closure memo
         * instead of a solve.
         */
        uint64_t memoHits = 0;

        /**
         * Dirty components solved by fairShareSolveComponent(): memo
         * misses plus components too large for the memo.
         */
        uint64_t componentSolves = 0;

        /**
         * Finish-time operations, counted the way the calendar queue
         * that once held the finish times counted its inserts and
         * removes: +1 when a flow first gets a finish time, +2 when a
         * rate change re-keys it, +1 when a flow that had one is
         * removed.  Result records and telemetry carry it as
         * `calqueue_ops`.
         */
        uint64_t calqueueOps = 0;

        /**
         * Calendar-queue resizes.  Always 0: the next finish is one
         * scan of the slot array, so there is no queue to resize.
         * Kept because result records and telemetry carry it as
         * `calqueue_resizes`; records written while the engine still
         * had a calendar queue carry its non-zero count for runs with
         * more than 32 concurrent flows.
         */
        uint64_t calqueueResizes = 0;

        /** Peak size of the active-flow set. */
        int peakActiveFlows = 0;
    };

    /** Engine counters accumulated so far (complete after run()). */
    Stats stats() const
    {
        Stats s = counters_;
        s.events = events_;
        return s;
    }

    /**
     * Enable per-resource utilization-timeline sampling.  The engine
     * accumulates each resource's busy time (units moved divided by
     * capacity, i.e. equivalent seconds at full speed) into
     * fixed-width time buckets; the bucket width starts at the first
     * time step and doubles (merging neighbor buckets pairwise)
     * whenever the count would exceed 2 * target_buckets, so a run of
     * any makespan ends up with between target_buckets and
     * 2 * target_buckets buckets.  Sampling is exact, not statistical:
     * summing a resource's buckets reproduces
     * resourceUtilization(r) * makespan() to round-off.
     *
     * Must be called before run().  Disabled by default; the hot loop
     * pays only one branch when disabled.
     */
    void enableUtilizationTimeline(int target_buckets);

    /** True when utilization-timeline sampling is on. */
    bool timelineEnabled() const { return timelineTarget_ > 0; }

    /** Width of one timeline bucket in simulated seconds. */
    double timelineBucketWidth() const { return timelineWidth_; }

    /** Number of populated timeline buckets. */
    int timelineBucketCount() const
    {
        return static_cast<int>(timelineBuckets_);
    }

    /** Busy seconds of resource `r` inside bucket `b`. */
    double timelineBusyTime(ResourceId r, int b) const;

    /**
     * Install a timeline observer invoked on every flow start/end,
     * delay expiry, and task completion.  Pass nullptr to disable.
     * Observers must not mutate the engine.
     */
    void setTraceSink(std::function<void(const TraceEvent &)> sink)
    {
        traceSink_ = std::move(sink);
    }

    /**
     * Install a runtime invariant auditor (see sim/audit.hh) that
     * validates rate conservation, max-min optimality, time
     * monotonicity, and trace pairing as the run executes.  Pass
     * nullptr to disable.  An auditor is installed automatically at
     * construction when the MCSCOPE_AUDIT environment variable is set
     * to a non-zero value.
     */
    void setAuditor(std::unique_ptr<Auditor> auditor);

    /** The installed auditor, or nullptr. */
    Auditor *auditor() const { return auditor_.get(); }

    /**
     * Closure-memo geometry (DESIGN §13 "Closure memo").  Every flow's
     * (path, rate cap) is interned to a dense id at addTask(), in
     * build order; a dirty component's key is its flows' ids in
     * ascending-slot order.  Components of more than kMemoMaxFlows
     * flows bypass the memo and are solved directly.
     */
    static constexpr size_t kMemoMaxFlows = 16;
    static constexpr size_t kMemoSets = 128;
    static constexpr size_t kMemoWays = 8;

    /** The memo set a closure key maps to (exposed for tests). */
    static size_t closureMemoSet(const uint32_t *key, size_t count);

  private:
    /** Keep in step with kTaskStateNames in engine.cc. */
    enum class TaskState
    {
        Unstarted,
        Ready,
        BlockedOnFlow,
        BlockedOnDelay,
        WaitingRendezvous,
        WaitingBarrier,
        Finished,
    };

    /**
     * One compiled primitive: the primitive and the interned (path,
     * cap) id of the flow it starts (a Work, or a carrier's rendezvous
     * transfer), or kNoFlow when it starts none.
     */
    struct Step
    {
        Prim prim;
        uint32_t flow;
    };

    /**
     * A compiled task: its program as one step array -- prologue
     * [0, bodyBegin), body [bodyBegin, bodyEnd), epilogue [bodyEnd,
     * end) -- and its position in it.  An empty body runs zero
     * iterations, and a body that runs zero iterations is not copied,
     * so bodyBegin == bodyEnd iff iterations == 0.
     */
    struct TaskEntry
    {
        std::string name;
        std::vector<Step> steps;
        size_t bodyBegin = 0;
        size_t bodyEnd = 0;
        uint64_t iterations = 0;
        uint64_t keyStride = 0;

        /** Index in steps of the next primitive to issue. */
        size_t pc = 0;

        /** Current body iteration. */
        uint64_t iter = 0;

        TaskState state = TaskState::Unstarted;
        SimTime finishTime = 0.0;
        SimTime blockStart = 0.0;
        PhaseTag blockTag = 0;

        /** Shifted key of the rendezvous or barrier being waited on. */
        uint64_t waitKey = 0;

        /** Next task in the same barrier's arrival order, or -1. */
        int nextWaiter = -1;

        /** Per-tag blocked time; flat array, tags are small ints. */
        std::array<SimTime, kPhaseTagSlots> taggedTime{};
    };

    /** Owner list of a flow: one task, or two for rendezvous. */
    using OwnerVec = SmallVec<int, 2>;

    /**
     * Open-addressing map from a shifted rendezvous or barrier key to
     * the tasks waiting on it; a barrier chains its waiters in arrival
     * order through TaskEntry::nextWaiter.  Every entry holds a blocked
     * task, so reset(taskCount()) sizes it for the whole run.
     */
    class WaitTable
    {
      public:
        struct Entry
        {
            uint64_t key = 0;
            int head = -1; ///< first waiting task; -1 = empty entry
            int tail = -1; ///< last waiting task (barriers)
            int count = 0; ///< waiting tasks (barriers)
        };

        /** Empty the table and size it for `maxEntries` entries. */
        void reset(size_t maxEntries);

        /** The entry for `key`, or nullptr. */
        Entry *find(uint64_t key);

        /** Add an entry for an absent `key`; the caller sets head. */
        Entry &add(uint64_t key);

        /** Remove an entry returned by find() or add(). */
        void erase(Entry *entry);

      private:
        size_t home(uint64_t key) const;

        std::vector<Entry> entries_;
    };

    /**
     * One pending Delay expiry.  `seq` is a monotone insertion counter
     * so coincident expiries release tasks in insertion order, exactly
     * like the std::multimap this heap replaced.
     */
    struct DelayEntry
    {
        SimTime time = 0.0;
        uint64_t seq = 0;
        int task = -1;
    };

    /** Min-heap comparator for DelayEntry ((time, seq) lexicographic). */
    struct DelayAfter
    {
        bool
        operator()(const DelayEntry &a, const DelayEntry &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    /** Drive a task until it blocks or finishes. */
    void advanceTask(int task);

    /** Append `prims` to `steps`, interning each flow they can start. */
    void compilePrims(std::vector<Prim> &prims, std::vector<Step> &steps);

    /**
     * Start a fluid flow of `amount` units over interned (path, cap)
     * `flow`, owned by `owners`.
     */
    void startFlow(uint32_t flow, double amount, OwnerVec owners,
                   PhaseTag tag);

    /** Tear down a completed flow's slot and incidence entries. */
    void removeFlow(FlowSlot slot);

    /** Queue `r` for the next dirty-set closure (idempotent). */
    void markResourceDirty(ResourceId r);

    /** Recompute max-min fair rates for the dirty flow set. */
    void recomputeRates();

    /** Solve every connected component the dirty resources reach. */
    void solveOptimized();

    /**
     * Rates for the component in closureFlows_[flowBegin..] (at least
     * one flow, sorted by slot) over closureRes_[resBegin..]: from the
     * memo when its key was solved before, else from a component solve
     * whose result is then memoized.
     */
    void solveComponent(size_t flowBegin, size_t resBegin);

    /** Dense id of a flow's (path, rate cap); interns new pairs. */
    uint32_t internFlow(const PathVec &path, double rateCap);

    /**
     * Adopt freshly solved rates for `slots[0..count)`; rates[k]
     * belongs to slots[k].  A flow's absolute finish time is updated
     * only when its assigned rate actually changes, so the time
     * sequence does not depend on how much of the flow set a rerun
     * solved (DESIGN §13).
     */
    void applyRates(const FlowSlot *slots, size_t count,
                    const double *rates);

    /** Attribute blocked time [blockStart, now] to the task's tag. */
    void accrueBlockedTime(int task);

    /** True when trace events need to be materialized. */
    bool tracing() const { return traceSink_ || auditor_; }

    /** Deliver one trace event to the auditor and the user sink. */
    void emitTrace(const TraceEvent &event);

    /**
     * Fold the busy time of the interval [t0, t1] into the timeline
     * buckets.  Called from run() only while the timeline is enabled;
     * flow rates are constant over the interval, so splitting each
     * flow's moved units by bucket overlap is exact.
     */
    void accrueTimeline(SimTime t0, SimTime t1);

    /** Double the timeline bucket width, merging buckets pairwise. */
    void rebinTimeline();

    /**
     * Panic with a per-task diagnostic of a simulation deadlock: each
     * stuck task's state, the key it waits on, and its program
     * position.
     */
    [[noreturn]] void panicDeadlock() const;

    /**
     * Sum of the capacities of every buffer the steady-state loop may
     * legitimately grow (hot-path scratch, the ready/advance queues,
     * the flow slots, and the timeline).  Capacities are monotone,
     * so the sum grows iff some buffer grew; the alloc-guard check in
     * run() excuses an iteration's allocations only when it did.
     */
    size_t allocGuardCapacitySum(
        const std::vector<int> &to_advance) const;

    /** Number of flow slots ever created (alive + free-listed). */
    size_t slotCount() const { return flowAlive_.size(); }

    std::vector<std::string> resourceNames_;
    std::vector<double> capacities_;
    std::vector<ResourceStats> stats_;

    std::vector<TaskEntry> tasks_;

    // --- Structure-of-arrays flow state ------------------------------
    // One entry per slot; a slot is recycled through freeSlots_ after
    // its flow completes.  Dead slots are inert for the hot loop's flat
    // scans: rate 0, remaining +inf, finish +inf, threshold -1, empty
    // path.  A live flow has rate 0 and finish +inf until its first
    // solve.
    std::vector<double> flowRemaining_; ///< units left to move
    std::vector<double> flowRate_;      ///< current fair-share rate
    std::vector<double> flowFinish_;    ///< absolute finish estimate
    std::vector<double> flowThresh_;    ///< completion tolerance
    std::vector<double> flowAmount_;    ///< original Work amount
    std::vector<double> flowRateCap_;   ///< per-flow rate ceiling
    std::vector<PathVec> flowPath_;     ///< resource path
    std::vector<OwnerVec> flowOwners_;  ///< owning task(s)
    std::vector<int> flowTag_;          ///< phase tag
    std::vector<uint32_t> flowKey_;     ///< interned (path, cap) id
    std::vector<char> flowAlive_;       ///< slot holds a live flow
    std::vector<FlowSlot> freeSlots_;   ///< recycled slot ids (LIFO)
    int activeFlows_ = 0;               ///< live-flow count

    /**
     * Per-resource incidence: the slots of the flows crossing each
     * resource, in arbitrary order with O(1) removal --
     * flowPosInRes_[s][h] is slot s's index inside
     * resFlows_[flowPath_[s][h]], maintained by swap-remove fixups.
     * This is the bottleneck-membership structure the dirty-set
     * closure walks.
     */
    std::vector<std::vector<FlowSlot>> resFlows_;
    std::vector<PathVec> flowPosInRes_;

    // Dirty-set state between allocator reruns.
    std::vector<char> resDirty_;        ///< resource queued in dirtyRes_
    std::vector<ResourceId> dirtyRes_;  ///< resources with changed flows
    std::vector<FlowSlot> newFlows_;    ///< slots started since last solve

    // Component scratch (valid only inside recomputeRates()): the
    // resources and flows of every component found so far this rerun,
    // each component a contiguous range.
    std::vector<char> resInClosure_;
    std::vector<char> flowInClosure_;
    std::vector<ResourceId> closureRes_;
    std::vector<FlowSlot> closureFlows_;

    // Flow interning: internFlows_[id] is the (path, cap) of id, and
    // internTable_ is an open-addressing index over it holding id + 1
    // (0 = empty).  Filled by addTask(); run() only reads it.
    std::vector<FairShareFlow> internFlows_;
    std::vector<uint32_t> internTable_;

    /** One memoized component: its key and the rates solved for it. */
    struct MemoEntry
    {
        uint32_t key[kMemoMaxFlows];
        double rates[kMemoMaxFlows];
    };

    /** Occupancy of a memo entry: key length and LRU stamp. */
    struct MemoTag
    {
        uint32_t count = 0; ///< key length; 0 = empty
        uint32_t stamp = 0; ///< memoClock_ at last use
    };

    // The closure memo: kMemoSets sets of kMemoWays entries, allocated
    // once by run() before the steady-state loop and never grown.
    std::unique_ptr<MemoEntry[]> memo_;
    std::unique_ptr<MemoTag[]> memoTags_;
    uint32_t memoClock_ = 0;

    /** Slots whose remaining work crossed the completion tolerance. */
    std::vector<FlowSlot> completedScratch_;

    /** Pending delays as a binary min-heap on (time, seq). */
    std::vector<DelayEntry> delayHeap_;
    uint64_t delaySeq_ = 0;

    WaitTable rendezvous_;
    WaitTable barriers_;

    std::vector<int> readyQueue_;

    std::function<void(const TraceEvent &)> traceSink_;
    std::unique_ptr<Auditor> auditor_;

    // Reusable hot-path workspaces: sized on first use, then every
    // recomputeRates() call is allocation-free in steady state.
    FairShareScratch fsScratch_;
    std::vector<AuditedFlow> auditScratch_;

    SimTime now_ = 0.0;
    bool ratesDirty_ = false;
    uint64_t events_ = 0;
    int unfinished_ = 0;

    Stats counters_;

    // Utilization-timeline state (see enableUtilizationTimeline()).
    // busy times live in one flat [bucket * resources + resource]
    // array so rebinning is a cache-friendly linear pass.
    int timelineTarget_ = 0;
    double timelineWidth_ = 0.0;
    size_t timelineBuckets_ = 0;
    std::vector<double> timelineBusy_;
};

} // namespace mcscope

#endif // MCSCOPE_SIM_ENGINE_HH
