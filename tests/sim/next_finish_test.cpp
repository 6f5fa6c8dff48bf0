/**
 * @file
 * Engine-level tests of the next-flow-finish scan (DESIGN §13 "Next
 * finish: one scan of the slot array"): every time step takes the
 * minimum absolute finish time over the flow-slot array.  These pin
 * the cases an ordered finish-time structure must get right -- a
 * far-future finish beside near ones, many coincident finishes, a
 * re-rate that moves a live flow's finish ahead of the current
 * minimum -- plus the Stats::calqueueOps accounting that result
 * records carry, and a randomized 2048-flow run checked against both
 * the auditor's exact-rate oracle and an independent naive fluid
 * simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sim/audit.hh"
#include "sim/engine.hh"
#include "sim/fairshare.hh"
#include "sim/task.hh"
#include "util/rng.hh"

namespace mcscope {
namespace {

uint64_t
bits(double v)
{
    uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
}

Work
work(double amount, PathVec path, double rateCap = 0.0)
{
    Work w;
    w.amount = amount;
    w.path = std::move(path);
    w.rateCap = rateCap;
    return w;
}

/** An engine with an auditor, which puts it in exact-rate mode. */
std::unique_ptr<Engine>
auditedEngine()
{
    auto e = std::make_unique<Engine>();
    e->setAuditor(std::make_unique<Auditor>());
    return e;
}

TEST(EngineNextFinish, FarFutureFinishBesideNearOnes)
{
    // A tiny rate on a huge amount puts one finish ~1e20 s out while
    // three near flows keep completing and restarting in its shadow.
    auto e = auditedEngine();
    const ResourceId slow = e->addResource("slow", 1.0e-5);
    const ResourceId fast = e->addResource("fast", 1.0);
    e->addTask(TaskProgram("far", {work(1.0e15, {slow})}));
    for (int t = 0; t < 3; ++t) {
        e->addTask(TaskProgram("near" + std::to_string(t), {},
                               {work(1.0 + t, {fast})}, 4));
    }
    e->run();
    // `fast` stays busy while any near task has work left, so the last
    // of the 4 * (1 + 2 + 3) = 24 near units ends at t = 24.
    EXPECT_DOUBLE_EQ(e->taskFinishTime(0), 1.0e20);
    double near_last = 0.0;
    for (int t = 1; t <= 3; ++t)
        near_last = std::max(near_last, e->taskFinishTime(t));
    EXPECT_NEAR(near_last, 24.0, 1e-9);
    EXPECT_NEAR(e->resourceUnitsMoved(fast), 24.0, 1e-9);
    EXPECT_DOUBLE_EQ(e->makespan(), 1.0e20);
    EXPECT_EQ(e->auditor()->openFlowCount(), 0u);
}

TEST(EngineNextFinish, CoincidentFinishesCompleteInOneStep)
{
    // Sixteen equal flows: eight on private resources, eight sharing
    // one resource of eight times the capacity.  Every one finishes at
    // t = 1, so the run is one time step.
    auto e = auditedEngine();
    const ResourceId shared = e->addResource("shared", 8.0);
    for (int t = 0; t < 8; ++t) {
        const ResourceId r =
            e->addResource("own" + std::to_string(t), 1.0);
        e->addTask(TaskProgram("own" + std::to_string(t), {work(1.0, {r})}));
        e->addTask(TaskProgram("shared" + std::to_string(t),
                               {work(1.0, {shared})}));
    }
    e->run();
    const Engine::Stats st = e->stats();
    EXPECT_EQ(st.timeSteps, 1u);
    EXPECT_EQ(st.peakActiveFlows, 16);
    for (int t = 0; t < e->taskCount(); ++t)
        EXPECT_EQ(bits(e->taskFinishTime(t)), bits(1.0)) << "task " << t;
    // One first finish time and one removal per flow.
    EXPECT_EQ(st.calqueueOps, 32u);
    EXPECT_EQ(st.calqueueResizes, 0u);
}

TEST(EngineNextFinish, ReRateMovesFinishBeforeCurrentMinimum)
{
    // A (2 units) and B (1.5 units) share r at 0.5/s each; C (5 units)
    // runs alone on q.  B ends at t = 3, leaving A 0.5 units.  Before
    // the re-rate A's finish (t = 4) is the minimum; the re-rate to
    // 1/s moves it to t = 3.5, ahead of that minimum, and the next
    // step must land there, not at 4 or at C's 5.
    auto e = auditedEngine();
    const ResourceId r = e->addResource("r", 1.0);
    const ResourceId q = e->addResource("q", 1.0);
    e->addTask(TaskProgram("A", {work(2.0, {r})}));
    e->addTask(TaskProgram("B", {work(1.5, {r})}));
    e->addTask(TaskProgram("C", {work(5.0, {q})}));
    e->run();
    EXPECT_EQ(bits(e->taskFinishTime(0)), bits(3.5));
    EXPECT_EQ(bits(e->taskFinishTime(1)), bits(3.0));
    EXPECT_EQ(bits(e->taskFinishTime(2)), bits(5.0));
    const Engine::Stats st = e->stats();
    EXPECT_EQ(st.timeSteps, 3u);
    // Three first finish times, A's one re-key (2), three removals.
    EXPECT_EQ(st.calqueueOps, 8u);
}

TEST(EngineNextFinish, UnchangedRateKeepsItsFinishTime)
{
    // A is capped at 0.5/s on r and B takes the other half.  When B
    // departs at t = 2 the re-solve hands A the rate it already had,
    // so A's finish time (t = 6) is not rewritten and costs nothing.
    auto e = auditedEngine();
    const ResourceId r = e->addResource("r", 1.0);
    e->addTask(TaskProgram("A", {work(3.0, {r}, 0.5)}));
    e->addTask(TaskProgram("B", {work(1.0, {r})}));
    e->run();
    EXPECT_EQ(bits(e->taskFinishTime(0)), bits(6.0));
    EXPECT_EQ(bits(e->taskFinishTime(1)), bits(2.0));
    // Two first finish times and two removals; no re-key.
    EXPECT_EQ(e->stats().calqueueOps, 4u);
}

/**
 * One task of the randomized run: a single Work whose path stays
 * inside one group of four resources, so the flow set splits into a
 * few large components.  Amounts come from a coarse grid, so flows on
 * one bottleneck often finish together; caps are rare and take one of
 * two values, which keeps progressive filling to a handful of rounds.
 */
Work
randomWork(Rng &rng, int groups)
{
    const int lo = 4 * static_cast<int>(rng.below(groups));
    Work w;
    w.amount = 50.0 * static_cast<double>(1 + rng.below(40));
    w.path = {static_cast<ResourceId>(lo + rng.below(4))};
    const auto second = static_cast<ResourceId>(lo + rng.below(4));
    if (second != w.path[0])
        w.path.push_back(second);
    if (rng.below(8) == 0)
        w.rateCap = rng.below(2) == 0 ? 0.5 : 2.0;
    return w;
}

/**
 * Naive fluid simulation of one Work per task, all starting at t = 0:
 * a whole-set reference solve every step, and each step's length the
 * smallest remaining/rate.  It shares nothing with the engine's event
 * loop, so a next-finish mistake shows up as diverging finish times.
 */
std::vector<double>
naiveFinishTimes(const std::vector<double> &caps,
                 const std::vector<Work> &works)
{
    std::vector<double> finish(works.size(), 0.0);
    std::vector<size_t> live(works.size());
    std::vector<double> remaining(works.size());
    for (size_t t = 0; t < works.size(); ++t) {
        live[t] = t;
        remaining[t] = works[t].amount;
    }
    double now = 0.0;
    while (!live.empty()) {
        std::vector<FairShareFlow> flows;
        for (size_t t : live)
            flows.push_back({works[t].path, works[t].rateCap});
        const std::vector<double> rates =
            fairShareRatesReference(caps, flows);
        double dt = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < live.size(); ++i)
            dt = std::min(dt, remaining[live[i]] / rates[i]);
        now += dt;
        std::vector<size_t> next;
        for (size_t i = 0; i < live.size(); ++i) {
            const size_t t = live[i];
            remaining[t] -= rates[i] * dt;
            if (remaining[t] > 1e-9 * std::max(1.0, works[t].amount))
                next.push_back(t);
            else
                finish[t] = now;
        }
        live = std::move(next);
    }
    return finish;
}

TEST(EngineNextFinish, RandomizedManyFlowsMatchNaiveSimulation)
{
    constexpr int kTasks = 2048;
    constexpr int kGroups = 8;
    Rng rng(0x2048f1a5ULL);
    std::vector<double> caps;
    for (int r = 0; r < 4 * kGroups; ++r)
        caps.push_back(rng.uniform(50.0, 500.0));
    std::vector<Work> works;
    for (int t = 0; t < kTasks; ++t)
        works.push_back(randomWork(rng, kGroups));

    Engine e;
    auto auditor = std::make_unique<Auditor>();
    auditor->setExactRateCheck(true);
    e.setAuditor(std::move(auditor));
    for (size_t r = 0; r < caps.size(); ++r)
        e.addResource("r" + std::to_string(r), caps[r]);
    for (int t = 0; t < kTasks; ++t)
        e.addTask(TaskProgram("t" + std::to_string(t), {works[t]}));
    e.run();

    const Engine::Stats st = e.stats();
    EXPECT_TRUE(e.auditor()->exactRateCheck());
    EXPECT_EQ(e.auditor()->allocationsChecked(), st.allocatorReruns);
    EXPECT_EQ(e.auditor()->openFlowCount(), 0u);
    EXPECT_EQ(st.peakActiveFlows, kTasks);
    EXPECT_EQ(st.calqueueResizes, 0u);

    const std::vector<double> oracle = naiveFinishTimes(caps, works);
    for (int t = 0; t < kTasks; ++t) {
        EXPECT_NEAR(e.taskFinishTime(t), oracle[t], 1e-7 * oracle[t])
            << "task " << t;
    }
}

} // namespace
} // namespace mcscope
