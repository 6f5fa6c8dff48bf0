#include "core/hybrid.hh"

#include "sim/task.hh"
#include "util/logging.hh"

namespace mcscope {

namespace {

/** Key namespace for per-task thread join barriers. */
constexpr uint64_t kJoinBarrierBase = 0xE000000000000000ULL;

} // namespace

HybridWorkload::HybridWorkload(std::shared_ptr<const LoopWorkload> base,
                               int threads_per_task)
    : base_(std::move(base)), threads_(threads_per_task)
{
    MCSCOPE_ASSERT(base_ != nullptr, "hybrid needs a base workload");
    MCSCOPE_ASSERT(threads_ >= 1, "threads per task must be >= 1");
}

std::string
HybridWorkload::name() const
{
    return "hybrid(" + base_->name() + ",x" +
           std::to_string(threads_) + ")";
}

void
HybridWorkload::buildTasks(Machine &machine, const MpiRuntime &rt) const
{
    const MachineConfig &cfg = machine.config();
    if (threads_ > cfg.contextsPerSocket()) {
        fatal("hybrid: ", threads_, " threads per task exceed ",
              cfg.contextsPerSocket(), " contexts per socket on ",
              cfg.name);
    }
    const int total = rt.ranks();
    if (total % threads_ != 0) {
        fatal("hybrid: ", total, " execution contexts do not divide "
              "into ", threads_, "-thread tasks");
    }
    const int ntasks = total / threads_;

    // MPI tasks sit one per socket (the model's whole point); the
    // leaders' runtime carries the inter-socket communication.
    NumactlOption leaders_opt = {"hybrid-leaders",
                                 TaskScheme::OneTaskPerSocket,
                                 MemPolicy::LocalAlloc};
    auto leaders = Placement::create(cfg, machine.topology(),
                                     leaders_opt, ntasks);
    if (!leaders) {
        fatal("hybrid: cannot place ", ntasks, " tasks one per socket "
              "on ", cfg.name);
    }
    MpiRuntime leader_rt(machine, *leaders, rt.implKind(),
                         rt.subLayerKind());

    for (int t = 0; t < ntasks; ++t) {
        const int leader_core = leader_rt.coreOf(t);
        const int socket = machine.socketOf(leader_core);
        // Compute works built for the leader carry exactly this path
        // (computeWork uses computePath); match on it so SMT compute
        // paths (context + shared issue port) are recognized too.
        const std::vector<ResourceId> leader_compute =
            machine.computePath(leader_core);
        std::vector<Prim> base_body =
            base_->body(machine, leader_rt, t);
        std::vector<Prim> base_pro =
            base_->prologue(machine, leader_rt, t);

        for (int th = 0; th < threads_; ++th) {
            // Spread threads across physical cores before doubling up
            // on SMT siblings (identity on non-SMT machines).
            const int core = socket * cfg.contextsPerSocket() +
                             cfg.smtContextIndex(th);
            std::vector<Prim> body;
            for (const Prim &p : base_body) {
                if (const auto *w = std::get_if<Work>(&p)) {
                    if (w->path == leader_compute ||
                        (w->path.size() == 1 &&
                         machine.isCoreResource(w->path[0]))) {
                        // Parallel region: the flop work splits
                        // across the socket's threads.
                        Work tw = *w;
                        tw.amount /= threads_;
                        tw.path = machine.computePath(core);
                        body.push_back(tw);
                    } else {
                        // Memory phase: each thread streams its
                        // slice; contention for the controller is
                        // the fluid model's job.
                        Work tw = *w;
                        tw.amount /= threads_;
                        body.push_back(tw);
                    }
                    continue;
                }
                // Delays (software/lock overheads) and all
                // synchronization belong to the leader thread.
                if (th == 0)
                    body.push_back(p);
            }
            // OpenMP-style join at the end of each iteration.
            if (threads_ > 1) {
                SyncAll join;
                join.key = kJoinBarrierBase +
                           static_cast<uint64_t>(t) * 64;
                join.expected = threads_;
                // in_place_type emplace sidesteps a GCC 12 variant
                // -Wmaybe-uninitialized false positive on push_back.
                body.emplace_back(std::in_place_type<SyncAll>, join);
            }

            std::vector<Prim> pro;
            if (th == 0)
                pro = base_pro;
            if (total > 1) {
                SyncAll start;
                start.key = kStartBarrierKey;
                start.expected = total;
                pro.emplace_back(std::in_place_type<SyncAll>, start);
            }
            machine.engine().addTask(TaskProgram(
                name() + ".t" + std::to_string(t) + ".th" +
                    std::to_string(th),
                std::move(pro), std::move(body),
                base_->iterations()));
        }
    }
}

} // namespace mcscope
