#include "sim/engine.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <sstream>

#include "sim/alloc_guard.hh"
#include "sim/audit.hh"
#include "sim/fairshare.hh"
#include "util/logging.hh"

namespace mcscope {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Step::flow of a primitive that starts no flow. */
constexpr uint32_t kNoFlow = std::numeric_limits<uint32_t>::max();

static_assert((Engine::kMemoSets & (Engine::kMemoSets - 1)) == 0,
              "memo set count must be a power of two");

/** One multiply-xorshift step of the intern and memo hashes. */
uint64_t
mixHash(uint64_t h, uint64_t v)
{
    h = (h ^ v) * 0xff51afd7ed558ccdULL;
    return h ^ (h >> 33);
}

/** Hash of one flow's (path, rate cap) for the intern table. */
uint64_t
flowHash(const PathVec &path, double rateCap)
{
    uint64_t cap;
    std::memcpy(&cap, &rateCap, sizeof cap);
    uint64_t h = mixHash(path.size(), cap);
    for (ResourceId r : path)
        h = mixHash(h, static_cast<uint32_t>(r));
    return h;
}

/** Bitwise equality, so interning never merges distinct caps. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Engine::TaskState names, in declaration order. */
const char *const kTaskStateNames[] = {
    "unstarted", "ready", "blocked-on-flow", "blocked-on-delay",
    "waiting-rendezvous", "waiting-barrier", "finished"};

/** True when `w` takes simulated time, i.e. becomes a flow. */
bool
startsFlow(const Work &w)
{
    return w.amount > 0.0 && !(w.path.empty() && w.rateCap <= 0.0);
}

} // namespace

std::string
primKindName(const Prim &p)
{
    switch (p.index()) {
      case 0:
        return "Work";
      case 1:
        return "Delay";
      case 2:
        return "Rendezvous";
      case 3:
        return "SyncAll";
      default:
        return "?";
    }
}

Engine::Engine()
{
    if (auditRequestedByEnv())
        auditor_ = std::make_unique<Auditor>();
}

Engine::~Engine() = default;

void
Engine::setAuditor(std::unique_ptr<Auditor> auditor)
{
    auditor_ = std::move(auditor);
}

void
Engine::emitTrace(const TraceEvent &event)
{
    // Auditor and sink are diagnostic/user code, outside the
    // steady-state zero-allocation contract.
    alloc_guard::Pause pause;
    if (auditor_)
        auditor_->onTraceEvent(event);
    if (traceSink_)
        traceSink_(event);
}

const char *
traceEventKindName(TraceEvent::Kind kind)
{
    switch (kind) {
      case TraceEvent::Kind::FlowStart:
        return "flow-start";
      case TraceEvent::Kind::FlowEnd:
        return "flow-end";
      case TraceEvent::Kind::DelayEnd:
        return "delay-end";
      case TraceEvent::Kind::TaskFinish:
        return "task-finish";
    }
    return "?";
}

ResourceId
Engine::addResource(std::string name, double capacity)
{
    MCSCOPE_ASSERT(capacity > 0.0,
                   "resource '", name, "' needs positive capacity, got ",
                   capacity);
    // Memoized closure rates assume the capacities they were solved
    // against; those are fixed once the first solve has run.
    MCSCOPE_ASSERT(counters_.allocatorReruns == 0,
                   "resource '", name, "' added after the run started");
    resourceNames_.push_back(std::move(name));
    capacities_.push_back(capacity);
    stats_.emplace_back();
    resFlows_.emplace_back();
    resDirty_.push_back(0);
    resInClosure_.push_back(0);
    return static_cast<ResourceId>(capacities_.size() - 1);
}

int
Engine::addTask(TaskProgram program)
{
    if (program.iterations == 0)
        program.body.clear();
    TaskEntry t;
    t.name = std::move(program.name);
    t.steps.reserve(program.prologue.size() + program.body.size() +
                    program.epilogue.size());
    compilePrims(program.prologue, t.steps);
    t.bodyBegin = t.steps.size();
    compilePrims(program.body, t.steps);
    t.bodyEnd = t.steps.size();
    t.iterations = t.bodyEnd > t.bodyBegin ? program.iterations : 0;
    compilePrims(program.epilogue, t.steps);
    t.keyStride = program.keyStride;
    tasks_.push_back(std::move(t));
    return static_cast<int>(tasks_.size() - 1);
}

void
Engine::compilePrims(std::vector<Prim> &prims, std::vector<Step> &steps)
{
    for (Prim &p : prims) {
        const Work *w = std::get_if<Work>(&p);
        if (const auto *r = std::get_if<Rendezvous>(&p); r && r->carrier)
            w = &r->transfer;
        const uint32_t flow = w != nullptr && startsFlow(*w)
                                  ? internFlow(w->path, w->rateCap)
                                  : kNoFlow;
        steps.push_back({std::move(p), flow});
    }
}

SimTime
Engine::taskFinishTime(int task) const
{
    MCSCOPE_ASSERT(task >= 0 && task < taskCount(), "bad task id ", task);
    MCSCOPE_ASSERT(tasks_[task].state == TaskState::Finished,
                   "task ", task, " has not finished");
    return tasks_[task].finishTime;
}

SimTime
Engine::makespan() const
{
    SimTime m = 0.0;
    for (const auto &t : tasks_)
        m = std::max(m, t.finishTime);
    return m;
}

SimTime
Engine::taggedTime(int task, PhaseTag tag) const
{
    MCSCOPE_ASSERT(task >= 0 && task < taskCount(), "bad task id ", task);
    MCSCOPE_ASSERT(tag >= 0 && tag < kPhaseTagSlots,
                   "phase tag ", tag, " out of range [0, ",
                   kPhaseTagSlots, ")");
    return tasks_[task].taggedTime[tag];
}

SimTime
Engine::maxTaggedTime(PhaseTag tag) const
{
    SimTime m = 0.0;
    for (int t = 0; t < taskCount(); ++t)
        m = std::max(m, taggedTime(t, tag));
    return m;
}

double
Engine::resourceUnitsMoved(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    return stats_[r].unitsMoved;
}

int
Engine::resourcePeakConcurrency(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    return stats_[r].peakConcurrency;
}

double
Engine::resourceUtilization(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    SimTime span = makespan();
    if (span <= 0.0)
        return 0.0;
    return stats_[r].unitsMoved / (capacities_[r] * span);
}

const std::string &
Engine::resourceName(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    return resourceNames_[r];
}

double
Engine::resourceCapacity(ResourceId r) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    return capacities_[r];
}

void
Engine::accrueBlockedTime(int task)
{
    TaskEntry &t = tasks_[task];
    MCSCOPE_ASSERT(t.blockTag >= 0 && t.blockTag < kPhaseTagSlots,
                   "phase tag ", t.blockTag, " out of range [0, ",
                   kPhaseTagSlots, ")");
    t.taggedTime[t.blockTag] += now_ - t.blockStart;
}

void
Engine::markResourceDirty(ResourceId r)
{
    if (!resDirty_[r]) {
        resDirty_[r] = 1;
        dirtyRes_.push_back(r);
    }
}

void
Engine::startFlow(uint32_t flow, double amount, OwnerVec owners,
                  PhaseTag tag)
{
    const FairShareFlow &f = internFlows_[flow];
    if (tracing()) {
        emitTrace({TraceEvent::Kind::FlowStart, now_, owners[0], tag,
                   amount, f.path});
    }

    FlowSlot slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = static_cast<FlowSlot>(slotCount());
        flowRemaining_.push_back(kInf);
        flowRate_.push_back(0.0);
        flowFinish_.push_back(kInf);
        flowThresh_.push_back(-1.0);
        flowAmount_.push_back(0.0);
        flowOwners_.emplace_back();
        flowTag_.push_back(0);
        flowKey_.push_back(deadFlow_);
        flowPosInRes_.emplace_back();
        flowInClosure_.push_back(0);
    }

    flowRemaining_[slot] = amount;
    flowRate_[slot] = 0.0;
    flowFinish_[slot] = kInf;
    flowThresh_[slot] = 1e-9 * std::max(1.0, amount) + 1e-300;
    flowAmount_[slot] = amount;
    flowOwners_[slot] = std::move(owners);
    flowTag_[slot] = tag;
    flowKey_[slot] = flow;

    // Wire up per-resource incidence and dirty the path.  The running
    // incidence counts also track peak concurrency exactly: the count
    // only changes by one per arrival/departure, so every peak is
    // attained immediately after some arrival.
    flowPosInRes_[slot].clear();
    for (ResourceId r : f.path) {
        flowPosInRes_[slot].push_back(
            static_cast<int>(resFlows_[r].size()));
        resFlows_[r].push_back(slot);
        const int users = static_cast<int>(resFlows_[r].size());
        if (users > stats_[r].peakConcurrency)
            stats_[r].peakConcurrency = users;
        markResourceDirty(r);
    }
    newFlows_.push_back(slot);
    ++activeFlows_;
    if (activeFlows_ > counters_.peakActiveFlows)
        counters_.peakActiveFlows = activeFlows_;
    ratesDirty_ = true;
}

uint32_t
Engine::internFlow(const PathVec &path, double rateCap)
{
    if (2 * (internFlows_.size() + 1) > internTable_.size()) {
        // Keep the load factor at most one half: rehash at twice the
        // size.
        std::vector<uint32_t> table(
            std::max<size_t>(64, 2 * internTable_.size()), 0);
        const size_t mask = table.size() - 1;
        for (size_t id = 0; id < internFlows_.size(); ++id) {
            const FairShareFlow &f = internFlows_[id];
            size_t i = flowHash(f.path, f.rateCap) & mask;
            while (table[i] != 0)
                i = (i + 1) & mask;
            table[i] = static_cast<uint32_t>(id + 1);
        }
        internTable_ = std::move(table);
    }
    const size_t mask = internTable_.size() - 1;
    for (size_t i = flowHash(path, rateCap) & mask;; i = (i + 1) & mask) {
        const uint32_t entry = internTable_[i];
        if (entry == 0) {
            const auto id = static_cast<uint32_t>(internFlows_.size());
            internTable_[i] = id + 1;
            internFlows_.push_back({path, rateCap});
            return id;
        }
        const FairShareFlow &f = internFlows_[entry - 1];
        if (f.path == path && sameBits(f.rateCap, rateCap))
            return entry - 1;
    }
}

void
Engine::removeFlow(FlowSlot slot)
{
    const PathVec &path = internFlows_[flowKey_[slot]].path;
    for (size_t h = 0; h < path.size(); ++h) {
        const ResourceId r = path[h];
        auto &list = resFlows_[r];
        const int pos = flowPosInRes_[slot][h];
        const int backIdx = static_cast<int>(list.size()) - 1;
        const FlowSlot moved = list[backIdx];
        list[pos] = moved;
        list.pop_back();
        if (pos != backIdx) {
            // Fix the moved flow's position handle for resource r.
            // With duplicate resources on a path the flow holds one
            // handle per hop; match on the handle that pointed at the
            // vacated back index.
            const PathVec &mp = internFlows_[flowKey_[moved]].path;
            for (size_t mh = 0; mh < mp.size(); ++mh) {
                if (mp[mh] == r &&
                    flowPosInRes_[moved][mh] == backIdx) {
                    flowPosInRes_[moved][mh] = pos;
                    break;
                }
            }
        }
        markResourceDirty(r);
    }

    // A flow that was ever rated had a finish time to drop.
    if (flowRate_[slot] != 0.0)
        ++counters_.calqueueOps;
    // Neutralize the slot for the flat hot-loop scans: zero rate moves
    // nothing, infinite remaining never crosses a negative threshold,
    // an infinite finish is never the next one, and the dead flow's
    // path is empty.
    flowKey_[slot] = deadFlow_;
    flowRemaining_[slot] = kInf;
    flowRate_[slot] = 0.0;
    flowFinish_[slot] = kInf;
    flowThresh_[slot] = -1.0;
    flowOwners_[slot].clear();
    flowPosInRes_[slot].clear();
    // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
    freeSlots_.push_back(slot);
    --activeFlows_;
    ratesDirty_ = true;
}

void
Engine::applyRates(const FlowSlot *slots, size_t count,
                   const double *rates)
{
    for (size_t k = 0; k < count; ++k) {
        const FlowSlot s = slots[k];
        const double rate = rates[k];
        MCSCOPE_ASSERT(rate > 0.0, "flow got a non-positive rate");
        if (rate == flowRate_[s])
            continue;
        // Re-anchor the absolute finish estimate only when the rate
        // actually changed, so finish-time bits -- and hence event
        // sequences and determinism digests -- do not depend on how
        // much of the flow set a rerun solved.  A first finish time
        // counts one operation, a re-key two (Stats::calqueueOps).
        counters_.calqueueOps += flowRate_[s] == 0.0 ? 1 : 2;
        flowRate_[s] = rate;
        flowFinish_[s] = now_ + flowRemaining_[s] / rate;
    }
}

size_t
Engine::closureMemoSet(const uint32_t *key, size_t count)
{
    uint64_t h = count;
    for (size_t k = 0; k < count; ++k)
        h = mixHash(h, key[k]);
    return static_cast<size_t>(h) & (kMemoSets - 1);
}

void
Engine::solveComponent(size_t flowBegin, size_t resBegin)
{
    const size_t n = closureFlows_.size() - flowBegin;
    const FlowSlot *slots = closureFlows_.data() + flowBegin;
    closureIds_.clear();
    for (size_t k = 0; k < n; ++k) {
        // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
        closureIds_.push_back(flowKey_[slots[k]]);
    }
    const uint32_t *ids = closureIds_.data();

    // The entry this solve fills; larger components bypass the memo.
    MemoEntry *fill = nullptr;
    if (n <= kMemoMaxFlows) {
        // The component's rates are a function of its flows' (path,
        // cap) multiset alone (capacities are fixed), and the key is
        // that multiset in ascending order, so an equal key -- all of
        // it, not a hash -- means bit-identical rates, each flow's
        // rate at the position of its id.
        const size_t base = closureMemoSet(ids, n) * kMemoWays;
        MemoTag *tags = &memoTags_[base];
        MemoEntry *entries = &memo_[base];
        ++memoClock_;
        for (size_t w = 0; w < kMemoWays; ++w) {
            if (tags[w].count == n &&
                std::memcmp(entries[w].key, ids, n * sizeof ids[0]) == 0) {
                tags[w].stamp = memoClock_;
                ++counters_.memoHits;
                applyRates(slots, n, entries[w].rates);
                return;
            }
        }
        // Replace the least recently used way; empty ways carry
        // stamp 0.
        size_t victim = 0;
        for (size_t w = 1; w < kMemoWays; ++w) {
            if (tags[w].stamp < tags[victim].stamp)
                victim = w;
        }
        tags[victim].count = static_cast<uint32_t>(n);
        tags[victim].stamp = memoClock_;
        fill = &entries[victim];
        std::memcpy(fill->key, ids, n * sizeof ids[0]);
    }

    ++counters_.componentSolves;
    fairShareSolveComponent(capacities_, internFlows_, ids, n,
                            closureRes_.data() + resBegin,
                            closureRes_.size() - resBegin, fsScratch_);
    if (fill != nullptr) {
        std::memcpy(fill->rates, fsScratch_.rates.data(),
                    n * sizeof(double));
    }
    applyRates(slots, n, fsScratch_.rates.data());
}

void
Engine::recomputeRates()
{
    ++counters_.allocatorReruns;
    ++counters_.incrementalSolves;
    // All scratch containers below persist across calls; clear() and
    // push_back() reuse their capacity, so the steady-state hot path
    // is allocation-free.  One breadth-first walk per dirty resource
    // not yet reached: resource -> incident flows -> their other path
    // resources.  Each walk covers exactly one connected component,
    // and flows outside every walked component share no resource
    // (transitively) with any changed flow, so their max-min rates are
    // provably unchanged and are left untouched.  A component's rates
    // depend on its flows alone, so each is solved (or served from the
    // memo) on its own.
    closureRes_.clear();
    closureFlows_.clear();
    for (ResourceId seed : dirtyRes_) {
        // A dirty resource no flow crosses any more has nothing to
        // solve; one that some flow crosses seeds a non-empty walk.
        if (resInClosure_[seed] || resFlows_[seed].empty())
            continue;
        const size_t resBegin = closureRes_.size();
        const size_t flowBegin = closureFlows_.size();
        resInClosure_[seed] = 1;
        // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
        closureRes_.push_back(seed);
        for (size_t i = resBegin; i < closureRes_.size(); ++i) {
            const ResourceId r = closureRes_[i];
            for (FlowSlot s : resFlows_[r]) {
                if (flowInClosure_[s])
                    continue;
                flowInClosure_[s] = 1;
                // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
                closureFlows_.push_back(s);
                for (ResourceId rr : internFlows_[flowKey_[s]].path) {
                    if (!resInClosure_[rr]) {
                        resInClosure_[rr] = 1;
                        // MCSCOPE_LINT_ALLOW(HOT-1): amortized reuse.
                        closureRes_.push_back(rr);
                    }
                }
            }
        }
        // A component's rates depend on the multiset of its flows'
        // (path, cap) ids, not on their order (see
        // fairShareSolveComponent), so sorting by id makes the memo
        // key that multiset: a flow set seen before in another slot
        // order is a hit.  The slot breaks ties so the order is total.
        const uint32_t *ids = flowKey_.data();
        std::sort(closureFlows_.begin() + static_cast<ptrdiff_t>(flowBegin),
                  closureFlows_.end(), [ids](FlowSlot a, FlowSlot b) {
                      return ids[a] != ids[b] ? ids[a] < ids[b] : a < b;
                  });
        solveComponent(flowBegin, resBegin);
    }
    for (ResourceId r : closureRes_)
        resInClosure_[r] = 0;
    for (FlowSlot s : closureFlows_)
        flowInClosure_[s] = 0;

    // Empty-path capped arrivals touch no resource, so no component
    // reaches them; their max-min rate is simply their cap.
    for (FlowSlot s : newFlows_) {
        const FairShareFlow &f = internFlows_[flowKey_[s]];
        if (flowKey_[s] != deadFlow_ && f.path.empty() &&
            flowRate_[s] == 0.0) {
            applyRates(&s, 1, &f.rateCap);
        }
    }

    for (ResourceId r : dirtyRes_)
        resDirty_[r] = 0;
    dirtyRes_.clear();
    newFlows_.clear();
    ratesDirty_ = false;

    if (auditor_) {
        // Runtime auditing is a validation layer, not steady state.
        alloc_guard::Pause pause;
        auditScratch_.clear();
        for (size_t s = 0; s < slotCount(); ++s) {
            if (flowKey_[s] == deadFlow_)
                continue;
            const FairShareFlow &f = internFlows_[flowKey_[s]];
            AuditedFlow af;
            af.path = f.path;
            af.rateCap = f.rateCap;
            af.rate = flowRate_[s];
            af.remaining = flowRemaining_[s];
            af.owner = flowOwners_[s][0];
            af.tag = flowTag_[s];
            auditScratch_.push_back(std::move(af));
        }
        auditor_->onAllocation(capacities_, auditScratch_, now_);
    }
}

void
Engine::enableUtilizationTimeline(int target_buckets)
{
    MCSCOPE_ASSERT(target_buckets > 0,
                   "timeline needs a positive bucket target, got ",
                   target_buckets);
    MCSCOPE_ASSERT(now_ == 0.0 && counters_.timeSteps == 0,
                   "timeline must be enabled before run()");
    timelineTarget_ = target_buckets;
    timelineWidth_ = 0.0;
    timelineBuckets_ = 0;
    timelineBusy_.clear();
}

double
Engine::timelineBusyTime(ResourceId r, int b) const
{
    MCSCOPE_ASSERT(r >= 0 && r < resourceCount(), "bad resource id ", r);
    MCSCOPE_ASSERT(b >= 0 && static_cast<size_t>(b) < timelineBuckets_,
                   "bad timeline bucket ", b, " of ", timelineBuckets_);
    return timelineBusy_[static_cast<size_t>(b) * capacities_.size() + r];
}

void
Engine::rebinTimeline()
{
    const size_t nres = capacities_.size();
    const size_t merged = (timelineBuckets_ + 1) / 2;
    for (size_t b = 0; b < merged; ++b) {
        double *dst = &timelineBusy_[b * nres];
        const double *lo = &timelineBusy_[2 * b * nres];
        for (size_t r = 0; r < nres; ++r)
            dst[r] = lo[r];
        if (2 * b + 1 < timelineBuckets_) {
            const double *hi = &timelineBusy_[(2 * b + 1) * nres];
            for (size_t r = 0; r < nres; ++r)
                dst[r] += hi[r];
        }
    }
    timelineBuckets_ = merged;
    timelineBusy_.resize(merged * nres);
    timelineWidth_ *= 2.0;
}

void
Engine::accrueTimeline(SimTime t0, SimTime t1)
{
    const size_t nres = capacities_.size();
    if (timelineWidth_ <= 0.0)
        timelineWidth_ = (t1 - t0); // first non-zero step sets the scale

    // Make sure the bucket covering t1 exists, doubling the width
    // until the populated count stays within 2 * target.
    size_t need = static_cast<size_t>(t1 / timelineWidth_) + 1;
    while (need > 2 * static_cast<size_t>(timelineTarget_)) {
        if (timelineBuckets_ > 0)
            rebinTimeline();
        else
            timelineWidth_ *= 2.0;
        need = static_cast<size_t>(t1 / timelineWidth_) + 1;
    }
    if (need > timelineBuckets_) {
        timelineBusy_.resize(need * nres, 0.0);
        timelineBuckets_ = need;
    }

    // Split [t0, t1] over the buckets it overlaps; each flow moved
    // rate * overlap units through every resource on its path, which
    // is overlap-weighted busy time after dividing by capacity.  Dead
    // slots are inert: rate 0 and the dead flow's empty path
    // contribute nothing.
    const double span = t1 - t0;
    size_t b0 = static_cast<size_t>(t0 / timelineWidth_);
    size_t b1 = need - 1;
    for (size_t b = b0; b <= b1; ++b) {
        double lo = std::max(t0, static_cast<double>(b) * timelineWidth_);
        double hi = std::min(
            t1, static_cast<double>(b + 1) * timelineWidth_);
        double overlap = hi - lo;
        if (overlap <= 0.0)
            continue;
        double frac = overlap / span;
        double *bucket = &timelineBusy_[b * nres];
        for (size_t s = 0; s < slotCount(); ++s) {
            double moved = flowRate_[s] * span;
            if (moved > flowRemaining_[s])
                moved = flowRemaining_[s];
            double busy = moved * frac;
            for (ResourceId r : internFlows_[flowKey_[s]].path)
                bucket[r] += busy / capacities_[r];
        }
    }
}

[[noreturn]] void
Engine::panicDeadlock() const
{
    static_assert(std::size(kTaskStateNames) ==
                  static_cast<size_t>(TaskState::Finished) + 1);
    std::ostringstream diag;
    for (int i = 0; i < taskCount(); ++i) {
        const TaskEntry &t = tasks_[i];
        if (t.state == TaskState::Finished)
            continue;
        diag << "\n  task " << i << " (" << t.name << ") "
             << kTaskStateNames[static_cast<int>(t.state)];
        if (t.state == TaskState::WaitingRendezvous ||
            t.state == TaskState::WaitingBarrier) {
            diag << " key 0x" << std::hex << t.waitKey << std::dec;
        }
        // pc has moved past the primitive the task is blocked in.
        if (t.pc > 0) {
            const size_t at = t.pc - 1;
            if (at < t.bodyBegin) {
                diag << " at prologue[" << at << "]";
            } else if (at < t.bodyEnd) {
                diag << " at body[" << at - t.bodyBegin << "] iteration "
                     << t.iter << " of " << t.iterations;
            } else {
                diag << " at epilogue[" << at - t.bodyEnd << "]";
            }
        }
    }
    MCSCOPE_PANIC("simulation deadlock:", diag.str());
}

size_t
Engine::allocGuardCapacitySum(const std::vector<int> &to_advance) const
{
    size_t incidence = resFlows_.capacity();
    for (const auto &list : resFlows_)
        incidence += list.capacity();
    const size_t memo = memo_ ? kMemoSets * kMemoWays : 0;
    return fsScratch_.rates.capacity() +
           fsScratch_.frozen.capacity() +
           fsScratch_.residual.capacity() +
           fsScratch_.users.capacity() +
           fsScratch_.saturated.capacity() + memo +
           auditScratch_.capacity() + timelineBusy_.capacity() +
           readyQueue_.capacity() + to_advance.capacity() +
           flowRemaining_.capacity() + flowOwners_.capacity() +
           flowPosInRes_.capacity() + freeSlots_.capacity() +
           newFlows_.capacity() + dirtyRes_.capacity() +
           closureRes_.capacity() + closureFlows_.capacity() +
           closureIds_.capacity() + completedScratch_.capacity() +
           delayHeap_.capacity() + incidence;
}

void
Engine::run()
{
    unfinished_ = taskCount();
    MCSCOPE_ASSERT(unfinished_ > 0, "run() with no tasks");

    if (auditor_) {
        // Audited runs double as bit-identity gates for the dirty-set
        // incremental allocator: every allocation is cross-checked
        // against a fresh whole-set reference solve, bit for bit.
        auditor_->setExactRateCheck(true);
    }

    // The closure memo's one allocation.  Entries are left
    // uninitialized (an empty tag marks them unused), so a run touches
    // only the pages it fills.
    if (!memo_) {
        memo_ = std::make_unique_for_overwrite<MemoEntry[]>(
            kMemoSets * kMemoWays);
        memoTags_ = std::make_unique<MemoTag[]>(kMemoSets * kMemoWays);
        deadFlow_ = static_cast<uint32_t>(internFlows_.size());
        internFlows_.emplace_back();
    }
    rendezvous_.reset(tasks_.size());
    barriers_.reset(tasks_.size());

    for (int i = 0; i < taskCount(); ++i) {
        if (tasks_[i].state == TaskState::Unstarted) {
            tasks_[i].state = TaskState::Ready;
            advanceTask(i);
            while (!readyQueue_.empty()) {
                int r = readyQueue_.back();
                readyQueue_.pop_back();
                if (tasks_[r].state == TaskState::Ready)
                    advanceTask(r);
            }
        }
    }

    std::vector<int> to_advance;

    // Debug zero-allocation guard (sim/alloc_guard.hh): count this
    // thread's heap allocations across each loop iteration and demand
    // zero unless a tracked scratch buffer grew its capacity that
    // same iteration (capacities are monotone, so the sum grows iff
    // some buffer grew -- that is the legitimate warm-up path).
    // Compiled out entirely in non-Debug builds.
    const bool guard_outermost =
        alloc_guard::kEnabled && !alloc_guard::armed();
    uint64_t guard_allocs = 0;
    size_t guard_capacity = 0;
    if (alloc_guard::kEnabled) {
        if (guard_outermost)
            alloc_guard::arm();
        guard_allocs = alloc_guard::allocationCount();
        guard_capacity = allocGuardCapacitySum(to_advance);
    }

    // MCSCOPE_HOT_BEGIN: Engine::run steady-state loop.  No heap
    // allocation below (mcscope-lint rule HOT-1; runtime counterpart
    // above).  Only the diagnostic call-outs -- emitTrace() and the
    // auditor -- pause the guard.
    while (unfinished_ > 0) {
        if (ratesDirty_)
            recomputeRates();

        // Earliest flow completion: one branch-free min over the
        // absolute finish times.  Those are invariant while rates are
        // unchanged (each flow drains at a constant rate), so only a
        // rate change rewrites one; dead and not-yet-rated slots hold
        // +inf.
        double dt_flow = kInf;
        if (activeFlows_ > 0) {
            const size_t n = slotCount();
            const double *finish = flowFinish_.data();
            double next = kInf;
            for (size_t s = 0; s < n; ++s)
                next = finish[s] < next ? finish[s] : next;
            dt_flow = next - now_;
            if (dt_flow <= 0.0) {
                // now_ accumulates dt with different round-off than
                // remaining accumulates rate*dt, so now_ can reach the
                // queued finish time while the nearest flow still
                // carries an epsilon of work above the completion
                // tolerance.  Fall back to the direct scan, whose
                // remaining/rate is strictly positive, so time always
                // advances and the flow drains on the next step.
                ++counters_.fallbackScans;
                dt_flow = kInf;
                for (size_t s = 0; s < slotCount(); ++s) {
                    if (flowKey_[s] == deadFlow_)
                        continue;
                    double d = flowRemaining_[s] / flowRate_[s];
                    if (d < dt_flow)
                        dt_flow = d;
                }
            }
        }
        // Earliest delay expiry.  Coincident expiries can land an
        // epsilon in the past from float round-off; clamp at zero so
        // time never steps backwards.
        double dt_delay = kInf;
        if (!delayHeap_.empty()) {
            dt_delay = delayHeap_.front().time - now_;
            if (dt_delay < 0.0)
                dt_delay = 0.0;
        }

        double dt = std::min(dt_flow, dt_delay);
        if (!std::isfinite(dt))
            panicDeadlock();
        if (dt < 0.0)
            dt = 0.0;

        // Advance time.  The timeline reads each flow's pre-drain
        // remaining work, so it accrues before the step pass.
        SimTime prev = now_;
        now_ += dt;
        ++counters_.timeSteps;
        if (auditor_) {
            alloc_guard::Pause pause;
            auditor_->onTimeAdvance(prev, now_);
        }
        if (timelineTarget_ > 0 && dt > 0.0)
            accrueTimeline(prev, now_);

        // One pass over the slots, in slot order: credit each path
        // resource with the units moved, drain, and collect the flows
        // that crossed their completion tolerance.  Dead slots are
        // inert (rate 0, remaining +inf, threshold -1, the dead flow's
        // empty path), so the pass needs no alive test.
        to_advance.clear();
        completedScratch_.clear();
        {
            const size_t n = slotCount();
            double *rem = flowRemaining_.data();
            const double *rate = flowRate_.data();
            const double *thresh = flowThresh_.data();
            const uint32_t *key = flowKey_.data();
            for (size_t s = 0; s < n; ++s) {
                const double step = rate[s] * dt;
                const double moved = step > rem[s] ? rem[s] : step;
                for (ResourceId r : internFlows_[key[s]].path)
                    stats_[r].unitsMoved += moved;
                rem[s] -= step;
                if (rem[s] <= thresh[s]) {
                    // MCSCOPE_LINT_ALLOW(HOT-1): amortized reuse.
                    completedScratch_.push_back(
                        static_cast<FlowSlot>(s));
                }
            }
        }
        for (FlowSlot slot : completedScratch_) {
            if (tracing()) {
                emitTrace({TraceEvent::Kind::FlowEnd, now_,
                           flowOwners_[slot][0], flowTag_[slot],
                           flowAmount_[slot],
                           internFlows_[flowKey_[slot]].path});
            }
            for (int owner : flowOwners_[slot]) {
                accrueBlockedTime(owner);
                tasks_[owner].state = TaskState::Ready;
                // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
                to_advance.push_back(owner);
            }
            removeFlow(slot);
        }

        // Expire delays, in (time, insertion) order.
        while (!delayHeap_.empty() &&
               delayHeap_.front().time <= now_ + 1e-15) {
            const int task = delayHeap_.front().task;
            std::pop_heap(delayHeap_.begin(), delayHeap_.end(),
                          DelayAfter{});
            delayHeap_.pop_back();
            if (tracing()) {
                emitTrace({TraceEvent::Kind::DelayEnd, now_, task,
                           tasks_[task].blockTag, 0.0, {}});
            }
            accrueBlockedTime(task);
            tasks_[task].state = TaskState::Ready;
            // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
            to_advance.push_back(task);
        }

        // Advance released tasks (which may release further tasks).
        for (size_t i = 0; i < to_advance.size(); ++i) {
            int task = to_advance[i];
            if (tasks_[task].state != TaskState::Ready)
                continue;
            advanceTask(task);
            while (!readyQueue_.empty()) {
                // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
                to_advance.push_back(readyQueue_.back());
                readyQueue_.pop_back();
            }
        }

        if (alloc_guard::kEnabled) {
            const uint64_t allocs = alloc_guard::allocationCount();
            const size_t capacity = allocGuardCapacitySum(to_advance);
            MCSCOPE_ASSERT(
                capacity > guard_capacity || allocs == guard_allocs,
                "zero-allocation contract violated: steady-state loop "
                "made ", allocs - guard_allocs, " heap allocation(s) "
                "on time step ", counters_.timeSteps, " without "
                "scratch-capacity growth (DESIGN 'Enforced "
                "invariants')");
            guard_allocs = allocs;
            guard_capacity = capacity;
        }
    }
    // MCSCOPE_HOT_END: Engine::run steady-state loop.

    if (guard_outermost)
        alloc_guard::disarm();

    if (auditor_) {
        alloc_guard::Pause pause;
        auditor_->onRunEnd(now_);
    }
}

// MCSCOPE_HOT_BEGIN: task-program interpreter, run once per event
// from the steady-state loop.  Programs were compiled by addTask()
// and the wait tables sized by run(), so nothing here allocates
// beyond amortized growth of the guard-tracked queues.
void
Engine::advanceTask(int task)
{
    TaskEntry &t = tasks_[task];
    MCSCOPE_ASSERT(t.state != TaskState::Finished,
                   "advancing finished task ", task);

    for (;;) {
        if (t.pc == t.bodyEnd && t.iter + 1 < t.iterations) {
            ++t.iter;
            t.pc = t.bodyBegin;
        }
        ++events_;
        if (t.pc == t.steps.size()) {
            t.state = TaskState::Finished;
            t.finishTime = now_;
            --unfinished_;
            if (tracing()) {
                emitTrace({TraceEvent::Kind::TaskFinish, now_, task,
                           0, 0.0, {}});
            }
            return;
        }
        const size_t at = t.pc++;
        const Step &step = t.steps[at];
        const Prim &p = step.prim;

        if (const auto *w = std::get_if<Work>(&p)) {
            if (step.flow == kNoFlow)
                continue; // zero amount or unconstrained: instantaneous
            t.state = TaskState::BlockedOnFlow;
            t.blockStart = now_;
            t.blockTag = w->tag;
            startFlow(step.flow, w->amount, {task}, w->tag);
            return;
        }

        if (const auto *d = std::get_if<Delay>(&p)) {
            if (d->seconds <= 0.0)
                continue;
            t.state = TaskState::BlockedOnDelay;
            t.blockStart = now_;
            t.blockTag = d->tag;
            // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
            delayHeap_.push_back({now_ + d->seconds, delaySeq_++, task});
            std::push_heap(delayHeap_.begin(), delayHeap_.end(),
                           DelayAfter{});
            return;
        }

        // Body keys are shifted per iteration so successive iterations
        // match independently.
        const uint64_t shift =
            at >= t.bodyBegin && at < t.bodyEnd ? t.iter * t.keyStride : 0;

        if (const auto *r = std::get_if<Rendezvous>(&p)) {
            const uint64_t key = r->key + shift;
            WaitTable::Entry *pending = rendezvous_.find(key);
            if (pending == nullptr) {
                rendezvous_.add(key).head = task;
                t.state = TaskState::WaitingRendezvous;
                t.blockStart = now_;
                t.blockTag = r->tag;
                t.waitKey = key;
                return;
            }
            // Partner already waiting: start the joint transfer.  The
            // carrier side's transfer moves the data; a waiting
            // partner's rendezvous is the primitive just behind its pc.
            const int partner = pending->head;
            rendezvous_.erase(pending);
            const Step &carrier =
                r->carrier ? step
                           : tasks_[partner].steps[tasks_[partner].pc - 1];
            const Rendezvous &cr = std::get<Rendezvous>(carrier.prim);
            MCSCOPE_ASSERT(cr.carrier, "rendezvous key ", key,
                           " has no carrier side");
            // The waiting partner has accrued its waiting time; switch
            // it to flow-blocked as of now.
            accrueBlockedTime(partner);
            tasks_[partner].blockStart = now_;
            tasks_[partner].state = TaskState::BlockedOnFlow;
            t.state = TaskState::BlockedOnFlow;
            t.blockStart = now_;
            t.blockTag = r->tag;
            if (carrier.flow == kNoFlow) {
                // Instantaneous transfer: both sides continue.
                tasks_[partner].state = TaskState::Ready;
                // MCSCOPE_LINT_ALLOW(HOT-1): amortized capacity reuse.
                readyQueue_.push_back(partner);
                continue;
            }
            startFlow(carrier.flow, cr.transfer.amount,
                      {task, partner}, cr.transfer.tag);
            return;
        }

        if (const auto *s = std::get_if<SyncAll>(&p)) {
            MCSCOPE_ASSERT(s->expected > 0, "barrier with expected <= 0");
            const uint64_t key = s->key + shift;
            WaitTable::Entry *b = barriers_.find(key);
            const int arrived = (b != nullptr ? b->count : 0) + 1;
            if (arrived >= s->expected) {
                // Release the earlier arrivals in arrival order; this
                // task proceeds immediately.
                if (b != nullptr) {
                    for (int w = b->head; w >= 0; w = tasks_[w].nextWaiter) {
                        accrueBlockedTime(w);
                        tasks_[w].state = TaskState::Ready;
                        // MCSCOPE_LINT_ALLOW(HOT-1): amortized reuse.
                        readyQueue_.push_back(w);
                    }
                    barriers_.erase(b);
                }
                continue;
            }
            if (b == nullptr) {
                b = &barriers_.add(key);
                b->head = task;
            } else {
                tasks_[b->tail].nextWaiter = task;
            }
            b->tail = task;
            b->count = arrived;
            t.nextWaiter = -1;
            t.state = TaskState::WaitingBarrier;
            t.blockStart = now_;
            t.blockTag = s->tag;
            t.waitKey = key;
            return;
        }

        MCSCOPE_PANIC("unhandled primitive kind");
    }
}
// MCSCOPE_HOT_END: task-program interpreter.

void
Engine::WaitTable::reset(size_t maxEntries)
{
    size_t size = 16;
    while (size < 2 * maxEntries)
        size *= 2;
    entries_.assign(size, Entry{});
}

size_t
Engine::WaitTable::home(uint64_t key) const
{
    return static_cast<size_t>(mixHash(0, key)) & (entries_.size() - 1);
}

Engine::WaitTable::Entry *
Engine::WaitTable::find(uint64_t key)
{
    const size_t mask = entries_.size() - 1;
    for (size_t i = home(key);; i = (i + 1) & mask) {
        if (entries_[i].head < 0)
            return nullptr;
        if (entries_[i].key == key)
            return &entries_[i];
    }
}

Engine::WaitTable::Entry &
Engine::WaitTable::add(uint64_t key)
{
    const size_t mask = entries_.size() - 1;
    size_t i = home(key);
    while (entries_[i].head >= 0)
        i = (i + 1) & mask;
    entries_[i] = Entry{};
    entries_[i].key = key;
    return entries_[i];
}

void
Engine::WaitTable::erase(Entry *entry)
{
    // Backward-shift deletion: pull each later entry of the probe run
    // into the hole unless its home lies cyclically in (hole, entry],
    // so every remaining key stays reachable from its home.
    const size_t mask = entries_.size() - 1;
    auto hole = static_cast<size_t>(entry - entries_.data());
    for (size_t j = (hole + 1) & mask; entries_[j].head >= 0;
         j = (j + 1) & mask) {
        if (((j - home(entries_[j].key)) & mask) >= ((j - hole) & mask)) {
            entries_[hole] = entries_[j];
            hole = j;
        }
    }
    entries_[hole].head = -1;
}

} // namespace mcscope
