#include "kernels/workload.hh"

#include <algorithm>

#include "sim/task.hh"
#include "util/logging.hh"

namespace mcscope {

RankProgram::RankProgram(const Machine &machine, const MpiRuntime &rt,
                         int rank, const SharingDescriptor &sharing)
    : machine_(&machine),
      rt_(&rt),
      rank_(rank),
      sharing_(sharing),
      spread_(rt.placement().memorySpread(rank))
{
}

void
RankProgram::compute(double flops, double efficiency, int tag)
{
    if (flops <= 0.0)
        return;
    // Unpinned tasks pay a migration cost on the compute side too:
    // every move restarts with cold caches and briefly shares a core.
    double drift = rt_->placement().driftFraction();
    if (drift > 0.0)
        efficiency = std::max(0.05, efficiency * (1.0 - 0.6 * drift));
    prims_.push_back(machine_->computeWork(rt_->coreOf(rank_), flops,
                                           efficiency, tag));
}

void
RankProgram::memory(double bytes, int tag)
{
    if (bytes <= 0.0)
        return;
    for (Work &w : machine_->memoryWorks(rt_->coreOf(rank_), spread_,
                                         bytes, tag, sharing_)) {
        prims_.push_back(std::move(w));
    }
}

void
RankProgram::memoryCapped(double bytes, double cap_factor, int tag)
{
    if (bytes <= 0.0)
        return;
    MCSCOPE_ASSERT(cap_factor > 0.0, "cap factor must be positive");
    for (Work &w : machine_->memoryWorks(rt_->coreOf(rank_), spread_,
                                         bytes, tag, sharing_)) {
        // Low-concurrency access patterns throttle the data stream,
        // not the protocol traffic it generates.
        if (w.rateCap > 0.0 && w.tag != tags::kCoherence)
            w.rateCap *= cap_factor;
        prims_.push_back(std::move(w));
    }
}

void
RankProgram::memoryAt(int node, double bytes, int tag)
{
    if (bytes <= 0.0)
        return;
    for (Work &w : machine_->memoryWorks(rt_->coreOf(rank_), node,
                                         bytes, tag, sharing_)) {
        prims_.push_back(std::move(w));
    }
}

void
RankProgram::delay(SimTime seconds, int tag)
{
    if (seconds <= 0.0)
        return;
    Delay d;
    d.seconds = seconds;
    d.tag = tag;
    prims_.push_back(d);
}

void
RankProgram::append(std::vector<Prim> prims)
{
    for (Prim &p : prims)
        prims_.push_back(std::move(p));
}

int
socketSharers(const Machine &machine, const MpiRuntime &rt, int rank)
{
    int cps = machine.config().contextsPerSocket();
    int my_socket = rt.coreOf(rank) / cps;
    int sharers = 0;
    for (int r = 0; r < rt.ranks(); ++r) {
        if (rt.coreOf(r) / cps == my_socket)
            ++sharers;
    }
    return sharers;
}

std::vector<Prim>
LoopWorkload::prologue(const Machine &, const MpiRuntime &, int) const
{
    return {};
}

void
LoopWorkload::buildTasks(Machine &machine, const MpiRuntime &rt) const
{
    const int p = rt.ranks();
    for (int r = 0; r < p; ++r) {
        std::vector<Prim> pro = prologue(machine, rt, r);
        if (p > 1) {
            SyncAll s;
            s.key = kStartBarrierKey;
            s.expected = p;
            // emplace with in_place_type sidesteps a GCC 12 variant
            // -Wmaybe-uninitialized false positive on push_back.
            pro.emplace_back(std::in_place_type<SyncAll>, s);
        }
        machine.engine().addTask(TaskProgram(
            name() + ".r" + std::to_string(r), std::move(pro),
            body(machine, rt, r), iterations()));
    }
}

} // namespace mcscope
