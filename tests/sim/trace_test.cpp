/**
 * @file
 * Tests for the engine's timeline trace sink.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/engine.hh"
#include "sim/task.hh"

namespace mcscope {
namespace {

Work
work(double amount, std::vector<ResourceId> path, int tag = 0)
{
    Work w;
    w.amount = amount;
    w.path = std::move(path);
    w.tag = tag;
    return w;
}

TEST(Trace, EmitsBalancedFlowEventsInTimeOrder)
{
    Engine e;
    ResourceId r = e.addResource("r", 10.0);
    e.addTask(TaskProgram(
        "a", std::vector<Prim>{work(10.0, {r}, 7),
                               work(20.0, {r}, 8)}));
    e.addTask(TaskProgram(
        "b", std::vector<Prim>{work(10.0, {r}, 7)}));

    std::vector<TraceEvent> events;
    e.setTraceSink([&events](const TraceEvent &ev) {
        events.push_back(ev);
    });
    e.run();

    int starts = 0, ends = 0, finishes = 0;
    SimTime prev = 0.0;
    for (const TraceEvent &ev : events) {
        EXPECT_GE(ev.time, prev);
        prev = ev.time;
        switch (ev.kind) {
          case TraceEvent::Kind::FlowStart:
            ++starts;
            break;
          case TraceEvent::Kind::FlowEnd:
            ++ends;
            break;
          case TraceEvent::Kind::TaskFinish:
            ++finishes;
            break;
          default:
            break;
        }
    }
    EXPECT_EQ(starts, 3);
    EXPECT_EQ(ends, 3);
    EXPECT_EQ(finishes, 2);
}

TEST(Trace, CarriesTagsAndAmounts)
{
    Engine e;
    ResourceId r = e.addResource("r", 10.0);
    e.addTask(TaskProgram(
        "t", std::vector<Prim>{work(42.0, {r}, 5)}));
    std::vector<TraceEvent> events;
    e.setTraceSink([&events](const TraceEvent &ev) {
        events.push_back(ev);
    });
    e.run();
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events[0].kind, TraceEvent::Kind::FlowStart);
    EXPECT_EQ(events[0].tag, 5);
    EXPECT_DOUBLE_EQ(events[0].amount, 42.0);
    EXPECT_EQ(events[0].task, 0);
}

TEST(Trace, DelayEndReported)
{
    Engine e;
    e.addResource("r", 1.0);
    Delay d;
    d.seconds = 0.5;
    d.tag = 9;
    e.addTask(TaskProgram("t", std::vector<Prim>{d}));
    bool saw_delay = false;
    e.setTraceSink([&saw_delay](const TraceEvent &ev) {
        if (ev.kind == TraceEvent::Kind::DelayEnd) {
            saw_delay = true;
            EXPECT_DOUBLE_EQ(ev.time, 0.5);
            EXPECT_EQ(ev.tag, 9);
        }
    });
    e.run();
    EXPECT_TRUE(saw_delay);
}

TEST(Trace, KindNames)
{
    EXPECT_STREQ(traceEventKindName(TraceEvent::Kind::FlowStart),
                 "flow-start");
    EXPECT_STREQ(traceEventKindName(TraceEvent::Kind::TaskFinish),
                 "task-finish");
}

TEST(Trace, NullSinkIsFine)
{
    Engine e;
    ResourceId r = e.addResource("r", 1.0);
    e.addTask(TaskProgram(
        "t", std::vector<Prim>{work(1.0, {r})}));
    e.setTraceSink(nullptr);
    e.run();
    EXPECT_DOUBLE_EQ(e.makespan(), 1.0);
}

} // namespace
} // namespace mcscope
