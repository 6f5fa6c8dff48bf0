/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * fair-share allocation, event throughput, end-to-end experiment
 * cost, the plan layer (batch spec expansion, spec digests) and the
 * on-disk result store.  These guard the harness's own performance (a
 * full table sweep runs hundreds of simulations).
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include <unistd.h>

#include "core/experiment.hh"
#include "core/plan.hh"
#include "core/registry.hh"
#include "core/runner.hh"
#include "kernels/nas_cg.hh"
#include "kernels/stream.hh"
#include "machine/config.hh"
#include "machine/machine.hh"
#include "machine/registry.hh"
#include "sim/fairshare.hh"
#include "sim/task.hh"
#include "util/fdio.hh"
#include "util/json.hh"
#include "util/rng.hh"

namespace mcscope {
namespace {

std::vector<FairShareFlow>
syntheticFlows(int nf)
{
    std::vector<FairShareFlow> flows;
    for (int f = 0; f < nf; ++f) {
        FairShareFlow fl;
        fl.path = {static_cast<ResourceId>(f % 16),
                   static_cast<ResourceId>((f * 7 + 3) % 16)};
        if (f % 3 == 0)
            fl.rateCap = 1.0e8;
        flows.push_back(fl);
    }
    return flows;
}

void
BM_FairShareReference(benchmark::State &state)
{
    // The retained allocation-per-call oracle: the audit's exact-rate
    // check pays one whole-set solve like this per allocation.
    const int nf = static_cast<int>(state.range(0));
    std::vector<double> caps(16, 1.0e9);
    std::vector<FairShareFlow> flows = syntheticFlows(nf);
    for (auto _ : state) {
        auto rates = fairShareRatesReference(caps, flows);
        benchmark::DoNotOptimize(rates);
    }
}
BENCHMARK(BM_FairShareReference)->Arg(16);

void
BM_PathVecCopy(benchmark::State &state)
{
    // Copying a Work (engine does this on every flow start and
    // allocator rerun).  With the inline PathVec a 3-hop path never
    // touches the heap.
    const auto hops = static_cast<size_t>(state.range(0));
    Work proto;
    proto.amount = 1.0e6;
    for (size_t h = 0; h < hops; ++h)
        proto.path.push_back(static_cast<ResourceId>(h));
    for (auto _ : state) {
        Work copy = proto;
        benchmark::DoNotOptimize(copy.path.data());
    }
}
BENCHMARK(BM_PathVecCopy)->Arg(1)->Arg(3)->Arg(6);

void
BM_EngineEventThroughput(benchmark::State &state)
{
    const uint64_t iters = static_cast<uint64_t>(state.range(0));
    for (auto _ : state) {
        Engine e;
        ResourceId r = e.addResource("r", 1.0e9);
        Work w;
        w.amount = 1.0e6;
        w.path = {r};
        for (int t = 0; t < 4; ++t) {
            e.addTask(TaskProgram(
                "t" + std::to_string(t), std::vector<Prim>{},
                std::vector<Prim>{w}, iters));
        }
        e.run();
        benchmark::DoNotOptimize(e.makespan());
    }
    state.SetItemsProcessed(state.iterations() * iters * 4);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(100)->Arg(1000);

void
BM_EngineEventThroughputTraced(benchmark::State &state)
{
    // Same workload as BM_EngineEventThroughput but with a trace sink
    // installed, so the cost of emitting TraceEvents (path copies
    // included) stays visible.  Compare against the untraced variant:
    // tracing OFF must stay within noise of it, since the hot path
    // only pays a branch on tracing().
    const uint64_t iters = static_cast<uint64_t>(state.range(0));
    for (auto _ : state) {
        Engine e;
        ResourceId r = e.addResource("r", 1.0e9);
        Work w;
        w.amount = 1.0e6;
        w.path = {r};
        for (int t = 0; t < 4; ++t) {
            e.addTask(TaskProgram(
                "t" + std::to_string(t), std::vector<Prim>{},
                std::vector<Prim>{w}, iters));
        }
        uint64_t sunk = 0;
        e.setTraceSink([&sunk](const TraceEvent &ev) {
            sunk += static_cast<uint64_t>(ev.kind) + 1;
        });
        e.run();
        benchmark::DoNotOptimize(sunk);
    }
    state.SetItemsProcessed(state.iterations() * iters * 4);
}
BENCHMARK(BM_EngineEventThroughputTraced)->Arg(1000);

void
BM_EngineEventThroughputTimeline(benchmark::State &state)
{
    // Untraced run with the utilization timeline sampling enabled:
    // the accrual loop touches every active flow per time step.
    const uint64_t iters = static_cast<uint64_t>(state.range(0));
    for (auto _ : state) {
        Engine e;
        ResourceId r = e.addResource("r", 1.0e9);
        Work w;
        w.amount = 1.0e6;
        w.path = {r};
        for (int t = 0; t < 4; ++t) {
            e.addTask(TaskProgram(
                "t" + std::to_string(t), std::vector<Prim>{},
                std::vector<Prim>{w}, iters));
        }
        e.enableUtilizationTimeline(64);
        e.run();
        benchmark::DoNotOptimize(e.makespan());
    }
    state.SetItemsProcessed(state.iterations() * iters * 4);
}
BENCHMARK(BM_EngineEventThroughputTimeline)->Arg(1000);

void
BM_FairShareComponentSolve(benchmark::State &state)
{
    // The incremental-solve primitive: re-solve a 4-flow component out
    // of nf total flows.  Cost must track the component size, not nf
    // -- this is the whole point of the dirty-set path.
    const int nf = static_cast<int>(state.range(0));
    std::vector<double> caps(16, 1.0e9);
    std::vector<FairShareFlow> all = syntheticFlows(nf);
    // A closed 4-flow component: flows sharing resources 0 and 7 only.
    const uint32_t ids[4] = {0, 1, 2, 3};
    for (uint32_t id : ids)
        all[id].path = {static_cast<ResourceId>(0),
                        static_cast<ResourceId>(7)};
    const ResourceId res[2] = {0, 7};
    FairShareScratch scratch;
    for (auto _ : state) {
        fairShareSolveComponent(caps, all, ids, 4, res, 2, scratch);
        benchmark::DoNotOptimize(scratch.rates.data());
    }
}
BENCHMARK(BM_FairShareComponentSolve)->Arg(64)->Arg(1024)->Arg(16384);

void
BM_EngineManyComponents(benchmark::State &state)
{
    // Sub-linearity showcase: nt tasks each looping Work on a private
    // resource.  Every arrival/departure dirties exactly one resource,
    // so the incremental solver re-solves a 1-flow closure regardless
    // of nt.  Events-per-second should stay roughly flat as nt grows;
    // the old global re-solve made each event cost O(nt).
    const int nt = static_cast<int>(state.range(0));
    const uint64_t iters = 50;
    for (auto _ : state) {
        Engine e;
        std::vector<Prim> body(1);
        for (int t = 0; t < nt; ++t) {
            ResourceId r =
                e.addResource("r" + std::to_string(t), 1.0e9);
            Work w;
            w.amount = 1.0e6 * (1.0 + 0.1 * (t % 7));
            w.path = {r};
            e.addTask(TaskProgram(
                "t" + std::to_string(t), std::vector<Prim>{},
                std::vector<Prim>{w}, iters));
        }
        e.run();
        benchmark::DoNotOptimize(e.makespan());
    }
    state.SetItemsProcessed(state.iterations() * iters *
                            static_cast<uint64_t>(nt));
}
BENCHMARK(BM_EngineManyComponents)->Arg(4)->Arg(32)->Arg(256)->Arg(2048);

void
BM_StreamExperiment(benchmark::State &state)
{
    StreamWorkload stream(4u << 20, 10);
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        RunResult r = runExperiment(cfg, stream);
        benchmark::DoNotOptimize(r.seconds);
    }
}
BENCHMARK(BM_StreamExperiment)->Arg(1)->Arg(16);

void
BM_CoherenceProbe(benchmark::State &state)
{
    // Per-slice probe pricing on the memoryWorks hot path: a snoopy
    // broadcast on a Longs-sized machine.  memoryWorks calls this for
    // every memory slice when a modeled mode is on, so emission must
    // stay cheap (and allocation-free once `flows` has warmed up).
    MachineConfig cfg = longsConfig();
    cfg.coherence.mode = CoherenceMode::Snoopy;
    CoherenceModel model(cfg.coherence, cfg.sockets);
    std::vector<CoherenceFlow> flows;
    for (auto _ : state) {
        flows.clear();
        model.priceAccess(0, 3, 1.0e6,
                          SharingDescriptor::privateData(), flows);
        benchmark::DoNotOptimize(flows.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoherenceProbe);

void
BM_StreamExperimentSnoopy(benchmark::State &state)
{
    // The Longs STREAM shape with modeled snoopy probe traffic: every
    // memory slice also emits HT probe flows, so this is the
    // end-to-end cost of the emergent-coherence path.  Compare
    // against BM_StreamExperiment (legacy-alpha, no flows) to see the
    // modeling overhead.
    StreamWorkload stream(4u << 20, 10);
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.machine.coherence.mode = CoherenceMode::Snoopy;
    cfg.option = table5Options()[0];
    cfg.ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        RunResult r = runExperiment(cfg, stream);
        benchmark::DoNotOptimize(r.seconds);
    }
}
BENCHMARK(BM_StreamExperimentSnoopy)->Arg(16);

void
BM_NasCgExperiment(benchmark::State &state)
{
    NasCgWorkload cg(nasCgClassB());
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[0];
    cfg.ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        RunResult r = runExperiment(cfg, cg);
        benchmark::DoNotOptimize(r.seconds);
    }
}
BENCHMARK(BM_NasCgExperiment)->Arg(16);

void
BM_NasCgExperimentInterleave(benchmark::State &state)
{
    // The same point under Interleave: every rank's memory flows span
    // the HT fabric, so each rerun re-solves one large coupled
    // component -- the closure memo's hardest case on the paper grids.
    NasCgWorkload cg(nasCgClassB());
    ExperimentConfig cfg;
    cfg.machine = longsConfig();
    cfg.option = table5Options()[5]; // Interleave
    cfg.ranks = static_cast<int>(state.range(0));
    for (auto _ : state) {
        RunResult r = runExperiment(cfg, cg);
        benchmark::DoNotOptimize(r.seconds);
    }
}
BENCHMARK(BM_NasCgExperimentInterleave)->Arg(16);

/** A shipped zoo machine from machines/; nullptr when unloadable. */
const MachineConfig *
zooMachine(const char *name)
{
    MachineRegistry &reg = MachineRegistry::instance();
    if (reg.find(name) == nullptr)
        reg.loadDirectory(std::string(MCSCOPE_SOURCE_DIR) + "/machines");
    return reg.find(name);
}

void
BM_EngineZooPoint(benchmark::State &state)
{
    // One cold zoo grid point: nas-cg-b, 16 ranks, default placement
    // on T3-4 (machines/t34.json).  Hundreds of engine resources but
    // at most 16 active flows, and iterations replay the same flow
    // configurations, so this is where the dirty-closure solve and
    // its memo show up -- unlike the synthetic event-throughput
    // benches.  Machine construction is outside the timed region.
    const MachineConfig *t34 = zooMachine("t3-4");
    if (t34 == nullptr) {
        state.SkipWithError("machines/t34.json not loadable");
        return;
    }
    NasCgWorkload cg(nasCgClassB());
    ExperimentConfig cfg;
    cfg.machine = *t34;
    cfg.option = table5Options()[0];
    cfg.ranks = 16;
    for (auto _ : state) {
        state.PauseTiming();
        auto machine = std::make_unique<Machine>(cfg.machine);
        state.ResumeTiming();
        RunResult r = runExperimentOn(*machine, cfg, cg);
        benchmark::DoNotOptimize(r.seconds);
        state.PauseTiming();
        machine.reset();
        state.ResumeTiming();
    }
}
BENCHMARK(BM_EngineZooPoint)->Unit(benchmark::kMicrosecond);

void
BM_PlanExpand(benchmark::State &state)
{
    // Parse and expand examples/batch_zoo.json (144 specs on Longs,
    // T3-4 and cluster12): JSON parse, machine-variant
    // canonicalization, per-spec canonical text, dedup and text
    // digest.  File read and machine loading are outside the loop.
    if (zooMachine("t3-4") == nullptr) {
        state.SkipWithError("machines/ not loadable");
        return;
    }
    std::string text;
    if (!readWholeFile(std::string(MCSCOPE_SOURCE_DIR) +
                           "/examples/batch_zoo.json",
                       text)) {
        state.SkipWithError("examples/batch_zoo.json not readable");
        return;
    }
    size_t specs = 0;
    for (auto _ : state) {
        std::optional<JsonValue> doc = parseJson(text);
        std::optional<SweepPlan> plan =
            doc ? SweepPlan::fromJson(*doc, nullptr) : std::nullopt;
        if (!plan) {
            state.SkipWithError("examples/batch_zoo.json did not expand");
            return;
        }
        specs = plan->specs().size();
        benchmark::DoNotOptimize(plan->specs().data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(specs));
}
BENCHMARK(BM_PlanExpand)->Unit(benchmark::kMicrosecond);

void
BM_SpecDigest(benchmark::State &state)
{
    // ScenarioSpec::digestWith on one spec: Arg 0 a Longs preset
    // (cached machine text), Arg 1 T3-4 (an inline machine, one
    // serialization per call).  The workload is built untimed.
    const bool zoo = state.range(0) != 0;
    ScenarioSpec spec;
    spec.workload = "nas-cg-b";
    spec.ranks = 16;
    if (zoo) {
        const MachineConfig *t34 = zooMachine("t3-4");
        if (t34 == nullptr) {
            state.SkipWithError("machines/t34.json not loadable");
            return;
        }
        spec.machine = *t34;
    } else {
        spec.machinePreset = "longs";
    }
    spec.canonicalize();
    state.SetLabel(zoo ? "t3-4" : "longs");
    std::unique_ptr<Workload> workload = makeWorkload(spec.workload);
    for (auto _ : state) {
        uint64_t d = spec.digestWith(*workload);
        benchmark::DoNotOptimize(d);
    }
}
BENCHMARK(BM_SpecDigest)->Arg(0)->Arg(1);

void
BM_SweepCacheHit(benchmark::State &state)
{
    // The Table 2/3 macro shape: a full numactl-option x rank-count
    // grid, expanded and run through the process cache.  Only the
    // first iteration simulates; every later one is served from
    // memory, so this times plan expansion, digesting and cache hits,
    // not simulation.  Arg is the parallel_for job count.
    SweepAxes axes;
    axes.machinePreset = "longs";
    axes.workloads = {"stream"};
    axes.rankCounts = {2, 4, 8, 16};
    RunnerOptions opts;
    opts.jobs = static_cast<int>(state.range(0));
    size_t grid = 0;
    for (auto _ : state) {
        const SweepPlan plan = SweepPlan::expand(axes);
        const PlanResults r = runPlan(plan, opts);
        grid = plan.pointCount();
        benchmark::DoNotOptimize(r.bySpec.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(grid));
}
BENCHMARK(BM_SweepCacheHit)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_DiskCacheHit(benchmark::State &state)
{
    // The warm path's cache layer: open a fresh ResultCache on a
    // directory holding 144 stored records (the zoo grid's count,
    // shaped like its records) and look every one of them up.  Each
    // iteration times the store's open and index build plus 144 disk
    // hits, each a read and a parse.
    constexpr uint64_t kRecords = 144;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("mcscope_bm_disk_cache_" +
          std::to_string(static_cast<long>(::getpid()))))
            .string();
    std::filesystem::remove_all(dir);
    {
        ResultCache writer(dir);
        Rng rng(144);
        for (uint64_t i = 0; i < kRecords; ++i) {
            RunResult r;
            r.valid = true;
            r.seconds = rng.uniform(1e-3, 10.0);
            for (int tag = 0; tag < 4; ++tag)
                r.taggedSeconds[tag] = r.seconds * rng.uniform(0.0, 1.0);
            r.events = 1000 + rng.below(100000);
            r.incrementalSolves = r.events / 2;
            r.calqueueOps = 2 * r.events;
            writer.store(0x9e3779b97f4a7c15ULL * (i + 1), r);
        }
    }
    for (auto _ : state) {
        ResultCache cache(dir);
        for (uint64_t i = 0; i < kRecords; ++i) {
            std::optional<ResultCache::Hit> hit =
                cache.lookup(0x9e3779b97f4a7c15ULL * (i + 1));
            if (!hit || !hit->fromDisk) {
                state.SkipWithError("stored record not served from disk");
                break;
            }
            benchmark::DoNotOptimize(hit->result.seconds);
        }
    }
    std::filesystem::remove_all(dir);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kRecords));
}
BENCHMARK(BM_DiskCacheHit)->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace mcscope

int
main(int argc, char **argv)
{
    // Stamp the report with the build flavor of *this* translation
    // unit (google-benchmark's own library_build_type key reflects how
    // the benchmark library was compiled, which can differ).
    // tools/check_bench_regression.py refuses to compare reports whose
    // harness was built with assertions enabled.
#ifdef NDEBUG
    benchmark::AddCustomContext("mcscope_build_type", "release");
#else
    benchmark::AddCustomContext("mcscope_build_type", "debug");
#endif
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
