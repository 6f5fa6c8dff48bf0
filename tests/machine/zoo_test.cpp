/**
 * @file
 * Modern-topology shape tests: the SMT issue-sharing resource, the
 * cluster network fabric, the placement generalizations behind them,
 * and end-to-end scaling shapes on the shipped zoo machines
 * (machines/t34.json, machines/cluster12.json).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "affinity/placement.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "machine/machine.hh"
#include "machine/registry.hh"
#include "sim/task.hh"

namespace mcscope {
namespace {

/** 1 socket x 2 cores x 2 threads, one thread sustains 60% alone. */
MachineConfig
smtBox()
{
    MachineConfig c;
    c.name = "smtbox";
    c.sockets = 1;
    c.coresPerSocket = 2;
    c.threadsPerCore = 2;
    c.smtThreadThroughput = 0.6;
    return c;
}

/** 4 sockets in 2 cluster nodes of 2, one HT link per node. */
MachineConfig
miniCluster()
{
    MachineConfig c;
    c.name = "minicluster";
    c.sockets = 4;
    c.coresPerSocket = 2;
    c.nodes = 2;
    c.fabricBandwidth = 1.25e9;
    c.fabricLinkLatency = 2.5e-6;
    c.htLinks = {{0, 1}};
    return c;
}

/** Makespan of one `flops`-sized compute burst per listed context. */
SimTime
computeMakespan(const MachineConfig &cfg, const std::vector<int> &contexts,
                double flops)
{
    Machine m(cfg);
    for (int c : contexts) {
        m.engine().addTask(TaskProgram(
            "t" + std::to_string(c),
            std::vector<Prim>{m.computeWork(c, flops, 1.0)}));
    }
    m.engine().run();
    return m.engine().now();
}

// ---------------------------------------------------------------------
// SMT: siblings share a physical core's issue bandwidth.
// ---------------------------------------------------------------------

TEST(Smt, ContextGeometry)
{
    MachineConfig cfg = smtBox();
    EXPECT_EQ(cfg.contextsPerSocket(), 4);
    EXPECT_EQ(cfg.totalCores(), 4);
    EXPECT_EQ(cfg.totalPhysicalCores(), 2);
    // Slots spread across physical cores before doubling onto
    // siblings: slot 0 -> core0/thread0, slot 1 -> core1/thread0,
    // slot 2 -> core0/thread1, slot 3 -> core1/thread1.
    EXPECT_EQ(cfg.smtContextIndex(0), 0);
    EXPECT_EQ(cfg.smtContextIndex(1), 2);
    EXPECT_EQ(cfg.smtContextIndex(2), 1);
    EXPECT_EQ(cfg.smtContextIndex(3), 3);

    Machine m(cfg);
    EXPECT_EQ(m.computePath(0).size(), 2u) << "context + issue port";
    Machine plain(configByName("dmz"));
    EXPECT_EQ(plain.computePath(0).size(), 1u)
        << "non-SMT compute paths unchanged";
}

TEST(Smt, SiblingsShareIssueBandwidth)
{
    MachineConfig cfg = smtBox();
    const double flops = 1.0e9;
    const double peak = cfg.coreFlops();

    // One thread alone sustains smtThreadThroughput of the core.
    SimTime alone = computeMakespan(cfg, {0}, flops);
    EXPECT_NEAR(alone, flops / (0.6 * peak), 1e-12 * alone);

    // Two sibling threads (contexts 0 and 1 share physical core 0)
    // saturate the core's issue port: each runs at half peak, which is
    // *slower* per thread than running alone...
    SimTime siblings = computeMakespan(cfg, {0, 1}, flops);
    EXPECT_NEAR(siblings, flops / (0.5 * peak), 1e-12 * siblings);
    EXPECT_GT(siblings, alone);

    // ...but faster in aggregate: 2 x 0.5 > 1 x 0.6 of peak.
    EXPECT_LT(siblings, 2.0 * alone);

    // Two threads on *different* physical cores don't contend at all.
    SimTime spread = computeMakespan(cfg, {0, 2}, flops);
    EXPECT_NEAR(spread, alone, 1e-12 * alone);
}

TEST(Smt, PlacementSpreadsAcrossPhysicalCoresFirst)
{
    MachineConfig cfg = smtBox();
    Topology topo(cfg.sockets, cfg.expandedHtLinks(), cfg.nodes);
    NumactlOption opt{"spread", TaskScheme::Spread,
                      MemPolicy::LocalAlloc};
    auto p = Placement::create(cfg, topo, opt, 2);
    ASSERT_TRUE(p);
    // Two ranks on a 2-core/2-thread socket must land on distinct
    // physical cores (contexts 0 and 2), not on SMT siblings.
    int phys0 = p->binding(0).core / cfg.threadsPerCore;
    int phys1 = p->binding(1).core / cfg.threadsPerCore;
    EXPECT_NE(phys0, phys1);
}

// ---------------------------------------------------------------------
// Cluster fabric: per-link-class latency, fabric-capped transfers.
// ---------------------------------------------------------------------

TEST(Cluster, PathLatencyPerLinkClass)
{
    MachineConfig cfg = miniCluster();
    Machine m(cfg);
    // Intra-node: one HT hop, exact legacy pricing.
    EXPECT_DOUBLE_EQ(m.pathLatency(0, 1), cfg.htHopLatency);
    // Cross-node: sockets 0 and 2 are both node attach points, so the
    // route is exactly two fabric links through the switch.
    EXPECT_DOUBLE_EQ(m.pathLatency(0, 2), 2.0 * cfg.fabricLinkLatency);
    EXPECT_EQ(m.hopsBetweenCores(0, 2 * cfg.coresPerSocket), 2);
    // Cross-node from a non-attach socket adds the HT hop to reach
    // the node's attach point.
    EXPECT_DOUBLE_EQ(m.pathLatency(1, 2),
                     cfg.htHopLatency + 2.0 * cfg.fabricLinkLatency);
    // Memory latency prices the same route round-trip.
    EXPECT_DOUBLE_EQ(m.memoryLatency(0, 2),
                     cfg.memLatency + 2.0 * (2.0 * cfg.fabricLinkLatency));
}

TEST(Cluster, LegacyLatencyIdentityOnPresets)
{
    for (const std::string &name : presetNames()) {
        MachineConfig cfg = configByName(name);
        Machine m(cfg);
        for (int a = 0; a < cfg.sockets; ++a) {
            for (int b = 0; b < cfg.sockets; ++b) {
                EXPECT_DOUBLE_EQ(m.pathLatency(a, b),
                                 m.topology().hopCount(a, b) *
                                     cfg.htHopLatency)
                    << name << " " << a << "->" << b;
            }
        }
    }
}

TEST(Cluster, CrossNodeTransfersRideTheFabric)
{
    MachineConfig cfg = miniCluster();
    Machine m(cfg);
    const double bytes = 1.0e6;
    // Sockets 0 -> 2 are different nodes: capped at fabric injection
    // bandwidth, touching both memory controllers plus the route.
    Work cross = m.transferWork(0, 2 * cfg.coresPerSocket, 0, bytes);
    EXPECT_DOUBLE_EQ(cross.rateCap, cfg.fabricBandwidth);
    EXPECT_GE(cross.path.size(), 4u)
        << "mem + 2 fabric links + mem at minimum";
    // Sockets 0 -> 1 share a node: the shared-memory double-copy
    // model, not the fabric cap.
    Work intra = m.transferWork(0, cfg.coresPerSocket, 0, bytes);
    EXPECT_NE(intra.rateCap, cfg.fabricBandwidth);
}

// ---------------------------------------------------------------------
// End-to-end shapes on the shipped zoo machines.
// ---------------------------------------------------------------------

const MachineConfig &
zooMachine(const char *name)
{
    MachineRegistry &reg = MachineRegistry::instance();
    if (reg.find(name) == nullptr) {
        std::string problem = reg.loadDirectory(
            std::string(MCSCOPE_SOURCE_DIR) + "/machines");
        EXPECT_EQ(problem, "");
    }
    const MachineConfig *cfg = reg.find(name);
    EXPECT_NE(cfg, nullptr) << name;
    return *cfg;
}

double
runSeconds(const MachineConfig &machine, const std::string &workload,
           const char *label, TaskScheme scheme, MemPolicy policy,
           int ranks)
{
    ExperimentConfig c;
    c.machine = machine;
    c.option = {label, scheme, policy};
    c.ranks = ranks;
    RunResult r = runExperiment(c, *makeWorkload(workload));
    EXPECT_TRUE(r.valid) << workload << " x" << ranks << " on "
                         << machine.name;
    return r.seconds;
}

// T3-4 (4 sockets x 16 cores x 8 threads, barrel-style cores):
// memory-bound work stops scaling once the four controllers saturate,
// and loading SMT siblings cannot push past that -- the modern "many
// contexts, same memory wall" shape the zoo exists to show.
TEST(ZooShapes, T34MemoryWallAcrossContexts)
{
    const MachineConfig &t34 = zooMachine("t3-4");
    ASSERT_EQ(t34.totalCores(), 512);
    double t8 = runSeconds(t34, "stream", "spread", TaskScheme::Spread,
                           MemPolicy::LocalAlloc, 8);
    double t64 = runSeconds(t34, "stream", "spread",
                            TaskScheme::Spread, MemPolicy::LocalAlloc,
                            64);
    // Aggregate demand grows with ranks but bandwidth does not: 8x
    // the ranks must cost clearly more than 1x and no less than the
    // per-socket bandwidth bound allows.
    EXPECT_GT(t64, 1.5 * t8);
}

// Cluster12: communication-heavy work pays the fabric when it spans
// nodes -- measured against a fabric-less twin (same 24 sockets and
// per-socket resources, wired as one HT ladder box) so the only
// difference is the interconnect class -- while bandwidth-bound work
// still gains from spreading over more memory controllers.
TEST(ZooShapes, Cluster12FabricVsBandwidthShapes)
{
    const MachineConfig &cl = zooMachine("cluster12");
    ASSERT_EQ(cl.nodes, 12);
    // Neutralize coherence in both twins: the shipped config snoops
    // node-locally, but its fabric-less twin would broadcast across
    // all 24 sockets, and that cost would swamp the interconnect
    // difference this test isolates.
    MachineConfig quiet = cl;
    quiet.coherence.mode = CoherenceMode::LegacyAlpha;
    quiet.coherenceAlpha = 0.0;
    MachineConfig flat = quiet;
    flat.name = "flatbox";
    flat.nodes = 1;
    flat.fabricBandwidth = 0.0;
    flat.fabricLinkLatency = 0.0;
    flat.htLinks = ladderLinks(12);

    const int ranks = 8;
    double cg_cluster =
        runSeconds(quiet, "nas-cg-b", "spread", TaskScheme::Spread,
                   MemPolicy::LocalAlloc, ranks);
    double cg_flat =
        runSeconds(flat, "nas-cg-b", "spread", TaskScheme::Spread,
                   MemPolicy::LocalAlloc, ranks);
    EXPECT_GT(cg_cluster, cg_flat)
        << "CG halo exchange must pay the microsecond-class fabric "
           "that the HT ladder twin does not charge";

    double st_packed =
        runSeconds(cl, "stream", "packed", TaskScheme::Packed,
                   MemPolicy::LocalAlloc, 4);
    double st_spread =
        runSeconds(cl, "stream", "spread", TaskScheme::Spread,
                   MemPolicy::LocalAlloc, 4);
    EXPECT_LT(st_spread, st_packed)
        << "STREAM must gain from spreading over more controllers";
}

// One fixed zoo point -- nas-cg-b, 16 ranks, the first Table 5
// option on T3-4 -- pinned to recorded bits: the simulated seconds,
// the program steps, and the finish-time operation count that result
// records carry as `calqueue_ops`.  An event-loop change that alters
// any of them changes published numbers and cached records.
TEST(ZooPin, T34NasCgPointKeepsItsBits)
{
    ExperimentConfig c;
    c.machine = zooMachine("t3-4");
    c.option = table5Options()[0];
    c.ranks = 16;
    RunResult r = runExperiment(c, *makeWorkload("nas-cg-b"));
    ASSERT_TRUE(r.valid);
    uint64_t seconds_bits;
    std::memcpy(&seconds_bits, &r.seconds, sizeof seconds_bits);
    EXPECT_EQ(seconds_bits, 0x404bd7759f478d63ULL); // 55.683277044236796
    EXPECT_EQ(r.events, 24032u);
    EXPECT_EQ(r.calqueueOps, 27600u);
    EXPECT_EQ(r.calqueueResizes, 0u);
}

} // namespace
} // namespace mcscope
