/**
 * @file
 * Tests for the simulation invariant auditor.
 *
 * Two layers: negative tests drive the auditor directly with
 * deliberately broken allocations/events and assert each invariant
 * class panics loudly (death tests), and positive tests run real
 * engine workloads under audit and check they pass, produce
 * deterministic digests, and count real work.
 */

#include <gtest/gtest.h>

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

AuditedFlow
flow(double rate, std::vector<ResourceId> path, double cap = 0.0)
{
    AuditedFlow f;
    f.rate = rate;
    f.path = std::move(path);
    f.rateCap = cap;
    f.remaining = 1.0;
    f.owner = 0;
    return f;
}

TraceEvent
event(TraceEvent::Kind kind, SimTime time, int task, double amount = 0.0)
{
    TraceEvent ev;
    ev.kind = kind;
    ev.time = time;
    ev.task = task;
    ev.amount = amount;
    return ev;
}

// --- Negative tests: every invariant class must be enforced. --------

using AuditDeath = ::testing::Test;

TEST(AuditDeath, OversubscribedResourcePanics)
{
    // Two flows at 70 on a capacity-100 resource: conservation broken.
    Auditor a;
    EXPECT_DEATH(a.onAllocation({100.0},
                                {flow(70.0, {0}), flow(70.0, {0})}, 0.0),
                 "conservation violation");
}

TEST(AuditDeath, StarvedFlowPanics)
{
    Auditor a;
    EXPECT_DEATH(a.onAllocation({100.0},
                                {flow(0.0, {0}), flow(50.0, {0})}, 1.0),
                 "starvation");
}

TEST(AuditDeath, CapViolationPanics)
{
    Auditor a;
    EXPECT_DEATH(a.onAllocation({100.0}, {flow(30.0, {0}, 10.0)}, 0.0),
                 "cap violation");
}

TEST(AuditDeath, NonMaxMinAllocationPanics)
{
    // One uncapped flow at 40 on a capacity-100 resource: its rate
    // could be raised without hurting anyone, so the allocation is
    // not max-min fair.
    Auditor a;
    EXPECT_DEATH(a.onAllocation({100.0}, {flow(40.0, {0})}, 0.0),
                 "max-min violation");
}

TEST(AuditDeath, UnequalSharesOnSaturatedResourcePanics)
{
    // Saturated resource, but the uncapped flows have unequal rates:
    // the 25-rate flow is not maximal anywhere, so not max-min fair.
    Auditor a;
    EXPECT_DEATH(a.onAllocation({100.0},
                                {flow(75.0, {0}), flow(25.0, {0})}, 0.0),
                 "max-min violation");
}

TEST(AuditDeath, UnknownResourcePanics)
{
    Auditor a;
    EXPECT_DEATH(a.onAllocation({100.0}, {flow(10.0, {3})}, 0.0),
                 "unknown resource");
}

TEST(AuditDeath, NonMonotoneTimeAdvancePanics)
{
    Auditor a;
    a.onTimeAdvance(0.0, 5.0);
    EXPECT_DEATH(a.onTimeAdvance(5.0, 3.0), "time ran backwards");
}

TEST(AuditDeath, NonMonotoneTraceTimelinePanics)
{
    Auditor a;
    a.onTraceEvent(event(TraceEvent::Kind::FlowStart, 5.0, 0, 1.0));
    EXPECT_DEATH(
        a.onTraceEvent(event(TraceEvent::Kind::FlowEnd, 4.0, 0, 1.0)),
        "timeline ran backwards");
}

TEST(AuditDeath, UnpairedFlowEndPanics)
{
    Auditor a;
    EXPECT_DEATH(
        a.onTraceEvent(event(TraceEvent::Kind::FlowEnd, 1.0, 0, 5.0)),
        "unpaired flow-end");
}

TEST(AuditDeath, FlowLeftOpenAtRunEndPanics)
{
    Auditor a;
    a.onTraceEvent(event(TraceEvent::Kind::FlowStart, 1.0, 0, 5.0));
    EXPECT_DEATH(a.onRunEnd(2.0), "unpaired flow-start");
}

// --- Valid allocations the auditor must accept. ---------------------

TEST(Audit, AcceptsFairSaturatedAllocation)
{
    Auditor a;
    a.onAllocation({100.0}, {flow(50.0, {0}), flow(50.0, {0})}, 0.0);
    EXPECT_EQ(a.allocationsChecked(), 1u);
}

TEST(Audit, AcceptsCapBoundFlowBelowSaturation)
{
    // The capped flow sits at its ceiling; the other flow soaks up the
    // rest of the resource, so both are properly bottlenecked.
    Auditor a;
    a.onAllocation({100.0}, {flow(10.0, {0}, 10.0), flow(90.0, {0})},
                   0.0);
    EXPECT_EQ(a.allocationsChecked(), 1u);
}

TEST(Audit, AcceptsUnequalRatesWhenSlowerFlowIsCapBound)
{
    Auditor a;
    a.onAllocation({100.0},
                   {flow(25.0, {0}, 25.0), flow(75.0, {0})}, 0.0);
    EXPECT_EQ(a.allocationsChecked(), 1u);
}

TEST(Audit, AcceptsMultiResourcePaths)
{
    // Flow 0 crosses both resources and is bottlenecked on resource 1
    // together with flow 1; resource 0 stays unsaturated.
    Auditor a;
    a.onAllocation({200.0, 100.0},
                   {flow(50.0, {0, 1}), flow(50.0, {1})}, 0.0);
    EXPECT_EQ(a.allocationsChecked(), 1u);
}

TEST(Audit, PairsFlowsAndDigestsDeterministically)
{
    auto feed = [](Auditor &a) {
        a.onTraceEvent(event(TraceEvent::Kind::FlowStart, 0.0, 0, 7.0));
        a.onTraceEvent(event(TraceEvent::Kind::FlowStart, 0.0, 1, 7.0));
        a.onTraceEvent(event(TraceEvent::Kind::FlowEnd, 2.0, 0, 7.0));
        a.onTraceEvent(event(TraceEvent::Kind::FlowEnd, 2.0, 1, 7.0));
        a.onTraceEvent(event(TraceEvent::Kind::TaskFinish, 2.0, 0));
        a.onRunEnd(2.0);
    };
    Auditor a1, a2;
    feed(a1);
    feed(a2);
    EXPECT_EQ(a1.openFlowCount(), 0u);
    EXPECT_EQ(a1.eventsObserved(), 5u);
    EXPECT_EQ(a1.digest(), a2.digest());

    // A reordered stream must change the digest.
    Auditor a3;
    a3.onTraceEvent(event(TraceEvent::Kind::FlowStart, 0.0, 1, 7.0));
    a3.onTraceEvent(event(TraceEvent::Kind::FlowStart, 0.0, 0, 7.0));
    a3.onTraceEvent(event(TraceEvent::Kind::FlowEnd, 2.0, 0, 7.0));
    a3.onTraceEvent(event(TraceEvent::Kind::FlowEnd, 2.0, 1, 7.0));
    a3.onTraceEvent(event(TraceEvent::Kind::TaskFinish, 2.0, 0));
    a3.onRunEnd(2.0);
    EXPECT_NE(a1.digest(), a3.digest());
}

// --- Engine integration: audited runs of real task graphs. ----------

/** Build a small contended engine program and run it audited. */
uint64_t
runAuditedEngine()
{
    Engine e;
    e.setAuditor(std::make_unique<Auditor>());
    ResourceId r0 = e.addResource("mem0", 100.0);
    ResourceId r1 = e.addResource("link0", 50.0);
    for (int t = 0; t < 4; ++t) {
        std::vector<Prim> prog;
        prog.push_back(work(200.0, {r0}, t == 0 ? 10.0 : 0.0, 1));
        Delay d;
        d.seconds = 0.01;
        prog.push_back(d);
        prog.push_back(work(80.0, {r0, r1}, 0.0, 2));
        SyncAll s;
        s.key = 42;
        s.expected = 4;
        prog.push_back(s);
        e.addTask(TaskProgram(
            "t" + std::to_string(t), std::move(prog)));
    }
    e.run();
    EXPECT_NE(e.auditor(), nullptr);
    EXPECT_GT(e.auditor()->allocationsChecked(), 0u);
    EXPECT_GT(e.auditor()->eventsObserved(), 0u);
    EXPECT_EQ(e.auditor()->openFlowCount(), 0u);
    return e.auditor()->digest();
}

TEST(Audit, AuditedEngineRunPassesAndReplaysIdentically)
{
    uint64_t d1 = runAuditedEngine();
    uint64_t d2 = runAuditedEngine();
    EXPECT_EQ(d1, d2);
}

TEST(Audit, RendezvousTransfersAuditCleanly)
{
    Engine e;
    e.setAuditor(std::make_unique<Auditor>());
    ResourceId r = e.addResource("buf", 64.0);
    std::vector<Prim> sender, receiver;
    Rendezvous a;
    a.key = 7;
    a.carrier = true;
    a.transfer = work(128.0, {r});
    sender.push_back(a);
    Rendezvous b;
    b.key = 7;
    receiver.push_back(b);
    e.addTask(TaskProgram("send", std::move(sender)));
    e.addTask(TaskProgram("recv", std::move(receiver)));
    e.run();
    EXPECT_DOUBLE_EQ(e.makespan(), 2.0);
    EXPECT_EQ(e.auditor()->openFlowCount(), 0u);
}

TEST(Audit, PeakConcurrencyCountsSimultaneousFlows)
{
    Engine e;
    ResourceId r = e.addResource("mem", 100.0);
    ResourceId lone = e.addResource("idle", 100.0);
    // Three tasks contend on r; the second work of task 0 runs alone.
    for (int t = 0; t < 3; ++t) {
        std::vector<Prim> prog;
        prog.push_back(work(100.0, {r}));
        if (t == 0)
            prog.push_back(work(500.0, {r}));
        e.addTask(TaskProgram(
            "t" + std::to_string(t), std::move(prog)));
    }
    e.run();
    EXPECT_EQ(e.resourcePeakConcurrency(r), 3);
    EXPECT_EQ(e.resourcePeakConcurrency(lone), 0);
    EXPECT_GT(e.resourceUnitsMoved(r), 0.0);
}

} // namespace
} // namespace mcscope
