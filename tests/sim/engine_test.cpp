/**
 * @file
 * Unit tests for the flow-level discrete-event engine: timing of
 * works and delays, fair sharing over time, rendezvous and barrier
 * semantics, tagged time attribution, and resource statistics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "sim/audit.hh"
#include "sim/engine.hh"
#include "sim/task.hh"

namespace mcscope {
namespace {

Work
work(double amount, std::vector<ResourceId> path, double cap = 0.0,
     int tag = 0)
{
    Work w;
    w.amount = amount;
    w.path = std::move(path);
    w.rateCap = cap;
    w.tag = tag;
    return w;
}

TEST(Engine, SingleWorkTiming)
{
    Engine e;
    ResourceId r = e.addResource("r", 100.0);
    e.addTask(TaskProgram(
        "t", std::vector<Prim>{work(250.0, {r})}));
    e.run();
    EXPECT_DOUBLE_EQ(e.makespan(), 2.5);
    EXPECT_DOUBLE_EQ(e.resourceUnitsMoved(r), 250.0);
    EXPECT_NEAR(e.resourceUtilization(r), 1.0, 1e-9);
}

TEST(Engine, DelayTiming)
{
    Engine e;
    e.addResource("r", 1.0);
    Delay d;
    d.seconds = 1.5;
    e.addTask(TaskProgram("t", std::vector<Prim>{d}));
    e.run();
    EXPECT_DOUBLE_EQ(e.makespan(), 1.5);
}

TEST(Engine, TwoTasksShareResource)
{
    Engine e;
    ResourceId r = e.addResource("r", 100.0);
    for (int i = 0; i < 2; ++i) {
        e.addTask(TaskProgram(
            "t" + std::to_string(i),
            std::vector<Prim>{work(100.0, {r})}));
    }
    e.run();
    // Each runs at 50 units/s concurrently: both finish at t=2.
    EXPECT_DOUBLE_EQ(e.makespan(), 2.0);
}

TEST(Engine, StaggeredCompletionReallocates)
{
    // Task A moves 100, task B moves 300 on a 100-cap resource.
    // Phase 1: both at 50 until A finishes at t=2 (A:100, B:100).
    // Phase 2: B alone at 100, remaining 200 -> 2 more seconds.
    Engine e;
    ResourceId r = e.addResource("r", 100.0);
    int a = e.addTask(TaskProgram(
        "a", std::vector<Prim>{work(100.0, {r})}));
    int b = e.addTask(TaskProgram(
        "b", std::vector<Prim>{work(300.0, {r})}));
    e.run();
    EXPECT_DOUBLE_EQ(e.taskFinishTime(a), 2.0);
    EXPECT_DOUBLE_EQ(e.taskFinishTime(b), 4.0);
}

TEST(Engine, RateCapHonored)
{
    Engine e;
    ResourceId r = e.addResource("r", 100.0);
    e.addTask(TaskProgram(
        "t", std::vector<Prim>{work(10.0, {r}, 5.0)}));
    e.run();
    EXPECT_DOUBLE_EQ(e.makespan(), 2.0);
}

TEST(Engine, RendezvousTransfersAndReleasesBoth)
{
    Engine e;
    ResourceId r = e.addResource("r", 10.0);

    Rendezvous carrier;
    carrier.key = 42;
    carrier.carrier = true;
    carrier.transfer = work(20.0, {r});

    Rendezvous other;
    other.key = 42;

    Delay head;
    head.seconds = 1.0;

    int a = e.addTask(TaskProgram(
        "a", std::vector<Prim>{carrier}));
    int b = e.addTask(TaskProgram(
        "b", std::vector<Prim>{head, other}));
    e.run();
    // b arrives at t=1, transfer takes 2 -> both finish at 3.
    EXPECT_DOUBLE_EQ(e.taskFinishTime(a), 3.0);
    EXPECT_DOUBLE_EQ(e.taskFinishTime(b), 3.0);
}

TEST(Engine, ZeroByteRendezvousIsInstant)
{
    Engine e;
    e.addResource("r", 1.0);
    Rendezvous carrier;
    carrier.key = 7;
    carrier.carrier = true; // zero-amount transfer
    Rendezvous other;
    other.key = 7;
    int a = e.addTask(TaskProgram(
        "a", std::vector<Prim>{carrier}));
    int b = e.addTask(TaskProgram(
        "b", std::vector<Prim>{other}));
    e.run();
    EXPECT_DOUBLE_EQ(e.taskFinishTime(a), 0.0);
    EXPECT_DOUBLE_EQ(e.taskFinishTime(b), 0.0);
}

TEST(Engine, BarrierAlignsTasks)
{
    Engine e;
    ResourceId r = e.addResource("r", 10.0);
    SyncAll s;
    s.key = 99;
    s.expected = 3;
    for (int i = 0; i < 3; ++i) {
        Delay d;
        d.seconds = static_cast<double>(i); // staggered arrivals
        e.addTask(TaskProgram(
            "t" + std::to_string(i),
            std::vector<Prim>{d, s, work(10.0, {r})}));
    }
    e.run();
    // All leave the barrier at t=2; three flows share cap 10 ->
    // 10 units each at 10/3 -> 3 seconds -> makespan 5.
    EXPECT_NEAR(e.makespan(), 5.0, 1e-9);
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(e.taskFinishTime(i), 5.0, 1e-9);
}

TEST(Engine, TaggedTimeAttribution)
{
    Engine e;
    ResourceId r = e.addResource("r", 10.0);
    int t = e.addTask(TaskProgram(
        "t", std::vector<Prim>{work(10.0, {r}, 0.0, /*tag=*/5),
                               work(20.0, {r}, 0.0, /*tag=*/6)}));
    e.run();
    EXPECT_NEAR(e.taggedTime(t, 5), 1.0, 1e-9);
    EXPECT_NEAR(e.taggedTime(t, 6), 2.0, 1e-9);
    EXPECT_NEAR(e.maxTaggedTime(6), 2.0, 1e-9);
}

TEST(Engine, LoopTaskRepeatsBody)
{
    Engine e;
    ResourceId r = e.addResource("r", 10.0);
    e.addTask(TaskProgram(
        "loop", std::vector<Prim>{},
        std::vector<Prim>{work(10.0, {r})}, 4));
    e.run();
    EXPECT_NEAR(e.makespan(), 4.0, 1e-9);
}

TEST(Engine, LoopTaskRendezvousKeysRewrittenPerIteration)
{
    // Two loop tasks ping-pong for 3 iterations; per-iteration key
    // rewriting must keep them matched (a stale key would deadlock or
    // mis-match, and the makespan would be wrong).
    Engine e;
    ResourceId r = e.addResource("r", 10.0);

    Rendezvous carrier;
    carrier.key = 1;
    carrier.carrier = true;
    carrier.transfer = work(10.0, {r});
    Rendezvous other;
    other.key = 1;

    e.addTask(TaskProgram(
        "a", std::vector<Prim>{}, std::vector<Prim>{carrier}, 3));
    e.addTask(TaskProgram(
        "b", std::vector<Prim>{}, std::vector<Prim>{other}, 3));
    e.run();
    EXPECT_NEAR(e.makespan(), 3.0, 1e-9);
}

TEST(Engine, InstantaneousPrimsAreSkipped)
{
    Engine e;
    e.addResource("r", 1.0);
    Delay zero;
    zero.seconds = 0.0;
    e.addTask(TaskProgram(
        "t", std::vector<Prim>{zero, work(0.0, {0}), work(1.0, {})}));
    e.run();
    EXPECT_DOUBLE_EQ(e.makespan(), 0.0);
}

TEST(Engine, CoincidentDelayExpiriesNeverStepTimeBackwards)
{
    // Many delays expiring at the same instant: the dt for the later
    // pops is delays_.begin()->first - now_, which float round-off
    // can push infinitesimally negative.  With the auditor's
    // monotonicity check armed, any backwards step panics.
    Engine e;
    e.setAuditor(std::make_unique<Auditor>());
    e.addResource("r", 1.0);
    // Accumulate to the same expiry along different summation orders
    // so the expiry times are equal-or-ulp-apart, not identical by
    // construction.
    const double step = 0.1; // not exactly representable in binary
    for (int t = 0; t < 8; ++t) {
        std::vector<Prim> prims;
        for (int k = 0; k < t + 1; ++k) {
            Delay d;
            d.seconds = step * 7.0 / (t + 1);
            prims.push_back(d);
        }
        e.addTask(TaskProgram(
            "t" + std::to_string(t), std::move(prims)));
    }
    e.run();
    EXPECT_NEAR(e.makespan(), 0.7, 1e-9);
}

TEST(Engine, CoincidentDelaysInterleavedWithFlows)
{
    Engine e;
    e.setAuditor(std::make_unique<Auditor>());
    ResourceId r = e.addResource("r", 10.0);
    for (int t = 0; t < 4; ++t) {
        Delay d;
        d.seconds = 0.5;
        e.addTask(TaskProgram(
            "t" + std::to_string(t),
            std::vector<Prim>{d, work(5.0, {r}), d}));
    }
    e.run();
    // 0.5 (delay) + 4 tasks sharing 10 units/s for 5 units each
    // (2.0 s) + 0.5 (delay).
    EXPECT_NEAR(e.makespan(), 3.0, 1e-9);
}

TEST(Engine, ZeroMakespanUtilizationIsZero)
{
    // A workload that completes instantaneously (zero-amount work,
    // zero delays) must report utilization 0, not divide by zero.
    Engine e;
    ResourceId r = e.addResource("r", 100.0);
    Delay zero;
    zero.seconds = 0.0;
    e.addTask(TaskProgram(
        "t", std::vector<Prim>{zero, work(0.0, {r})}));
    e.run();
    EXPECT_DOUBLE_EQ(e.makespan(), 0.0);
    double u = e.resourceUtilization(r);
    EXPECT_FALSE(std::isnan(u));
    EXPECT_DOUBLE_EQ(u, 0.0);
}

TEST(Engine, AuditedRunProducesIdenticalTimes)
{
    // An audited run cross-checks every allocation against the
    // whole-set reference solve, bit for bit; the unaudited hot path
    // must then reproduce its times exactly.
    auto build = [](Engine &e) {
        ResourceId r0 = e.addResource("r0", 10.0);
        ResourceId r1 = e.addResource("r1", 7.0);
        for (int t = 0; t < 4; ++t) {
            e.addTask(TaskProgram(
                "t" + std::to_string(t),
                std::vector<Prim>{
                    work(5.0, {r0}),
                    work(3.0, {r0, r1}, t % 2 == 0 ? 2.0 : 0.0)}));
        }
    };
    Engine plain;
    build(plain);
    plain.run();
    Engine audited;
    audited.setAuditor(std::make_unique<Auditor>());
    build(audited);
    audited.run();
    ASSERT_TRUE(audited.auditor()->exactRateCheck());
    EXPECT_EQ(audited.auditor()->allocationsChecked(),
              audited.stats().allocatorReruns);
    EXPECT_GT(audited.auditor()->allocationsChecked(), 0u);
    EXPECT_EQ(plain.makespan(), audited.makespan());
    for (int t = 0; t < plain.taskCount(); ++t)
        EXPECT_EQ(plain.taskFinishTime(t), audited.taskFinishTime(t));
}

TEST(EngineDeath, DeadlockedRendezvousPanics)
{
    // "a" loops twice over a carrier rendezvous, "b" only once, so a's
    // second rendezvous -- key 1 shifted by one key stride -- never
    // finds a partner.  The diagnostic names the state, the shifted
    // key and the program position.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ASSERT_DEATH(
        {
            Engine e;
            e.addResource("r", 1.0);
            Rendezvous lonely;
            lonely.key = 1;
            lonely.carrier = true;
            lonely.transfer = work(1.0, {0});
            Rendezvous partner;
            partner.key = 1;
            e.addTask(TaskProgram("a", {}, {lonely}, 2));
            e.addTask(TaskProgram("b", {}, {partner}, 1));
            e.run();
        },
        "deadlock:.*task 0 \\(a\\) waiting-rendezvous key 0x100000001 "
        "at body\\[0\\] iteration 1 of 2");
}

// --- Compiled task programs. ----------------------------------------

/** A rendezvous on `key`; the carrier side moves `amount` over r0. */
Rendezvous
rendezvous(uint64_t key, bool carrier, double amount = 0.0, int tag = 0)
{
    Rendezvous r;
    r.key = key;
    r.carrier = carrier;
    r.tag = tag;
    if (carrier)
        r.transfer = work(amount, {0});
    return r;
}

TEST(CompiledProgram, PrologueKeyEqualToBodyKeyAtIterationZero)
{
    // Body iteration 0 is unshifted, so the prologue's key 5 and the
    // first body key 5 are the same key, used twice in a row: each
    // pair matches in program order.  Transfers of 10, 20, 20 units at
    // 10/s, tagged 1 in the prologue and 2 in the body.
    Engine e;
    e.addResource("r", 10.0);
    e.addTask(TaskProgram("a", {rendezvous(5, true, 10.0, 1)},
                          {rendezvous(5, true, 20.0, 2)}, 2));
    const int b = e.addTask(TaskProgram(
        "b", {rendezvous(5, false, 0.0, 1)}, {rendezvous(5, false, 0.0, 2)},
        2));
    e.run();
    EXPECT_NEAR(e.makespan(), 5.0, 1e-9);
    EXPECT_NEAR(e.taggedTime(b, 1), 1.0, 1e-9);
    EXPECT_NEAR(e.taggedTime(b, 2), 4.0, 1e-9);
}

TEST(CompiledProgram, OnePairReusesARendezvousKeyBackToBack)
{
    // The first match frees key 3 before either side issues it again;
    // b's delay makes a wait on the reused key, so the table must have
    // dropped the old entry rather than matching a stale one.
    Engine e;
    e.addResource("r", 10.0);
    Delay pause;
    pause.seconds = 1.0;
    const int a = e.addTask(TaskProgram(
        "a", {rendezvous(3, true, 10.0), rendezvous(3, true, 20.0)}));
    const int b = e.addTask(TaskProgram(
        "b", {rendezvous(3, false), pause, rendezvous(3, false)}));
    e.run();
    // 1 s transfer, 1 s pause, 2 s transfer.
    EXPECT_NEAR(e.taskFinishTime(a), 4.0, 1e-9);
    EXPECT_NEAR(e.taskFinishTime(b), 4.0, 1e-9);
}

TEST(CompiledProgram, EmptyBodyWithIterationsRunsNoIteration)
{
    // Prologue and epilogue run once each; the empty body contributes
    // no event however many iterations it asks for.
    Engine e;
    ResourceId r = e.addResource("r", 1.0);
    e.addTask(TaskProgram("t", {work(2.0, {r})}, {}, 1000, {work(3.0, {r})}));
    e.run();
    EXPECT_NEAR(e.makespan(), 5.0, 1e-9);
    EXPECT_EQ(e.eventCount(), 3u);
}

TEST(CompiledProgram, ZeroAmountWorkAndInstantRendezvousTakeNoTime)
{
    // Zero-amount Work and a transfer with no path and no cap take no
    // simulated time, but still count as events, inside a loop body
    // whose rendezvous keys shift per iteration.
    Engine e;
    ResourceId r = e.addResource("r", 1.0);
    Rendezvous instant = rendezvous(9, true);
    instant.transfer.amount = 5.0;
    instant.transfer.path.clear(); // no path, no cap: instantaneous
    Delay tick;
    tick.seconds = 0.5;
    const int a = e.addTask(
        TaskProgram("a", {}, {work(0.0, {r}), instant, tick}, 3));
    const int b = e.addTask(TaskProgram("b", {}, {rendezvous(9, false)}, 3));
    e.run();
    EXPECT_NEAR(e.taskFinishTime(a), 1.5, 1e-9);
    EXPECT_DOUBLE_EQ(e.taskFinishTime(b), 1.0);
    EXPECT_DOUBLE_EQ(e.resourceUnitsMoved(r), 0.0);
    // 3 iterations of 3 + 1 primitives, plus two completions.
    EXPECT_EQ(e.eventCount(), 14u);
}

TEST(CompiledProgram, BarrierKeyReusedAcrossIterations)
{
    // Three tasks meet at barrier 7 every iteration, arriving after
    // staggered delays.  With key stride 0 every iteration reuses the
    // same key; with the default stride each iteration has its own.
    // Either way all tasks leave each barrier with the slowest, at
    // 3 s per iteration.
    for (uint64_t stride : {uint64_t{0}, uint64_t{1} << 32}) {
        Engine e;
        e.addResource("r", 1.0);
        SyncAll barrier;
        barrier.key = 7;
        barrier.expected = 3;
        for (int t = 0; t < 3; ++t) {
            Delay d;
            d.seconds = 1.0 + t;
            e.addTask(TaskProgram("t" + std::to_string(t), {}, {d, barrier},
                                  4, {}, stride));
        }
        e.run();
        for (int t = 0; t < 3; ++t)
            EXPECT_NEAR(e.taskFinishTime(t), 12.0, 1e-9) << stride;
    }
}

} // namespace
} // namespace mcscope
