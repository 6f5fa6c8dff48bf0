/**
 * @file
 * Stress and property tests for the engine: randomized task graphs
 * must complete without deadlock, conserve the units they demand,
 * and produce bit-identical results on replay.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "sim/engine.hh"
#include "sim/task.hh"
#include "util/rng.hh"

namespace mcscope {
namespace {

struct Scenario
{
    int resources = 0;
    int tasks = 0;
    double total_demand = 0.0;
    std::vector<std::vector<Prim>> programs;
};

/**
 * Build a random but deadlock-free scenario: per-task private work
 * and delays, pairwise rendezvous between adjacent task pairs (both
 * sides always posted), and periodic full barriers.
 */
Scenario
buildScenario(uint64_t seed)
{
    Rng rng(seed);
    Scenario sc;
    sc.resources = 2 + static_cast<int>(rng.below(6));
    sc.tasks = 2 + static_cast<int>(rng.below(6));
    if (sc.tasks % 2)
        ++sc.tasks; // pair tasks up for rendezvous
    sc.programs.resize(sc.tasks);

    int rounds = 3 + static_cast<int>(rng.below(5));
    for (int round = 0; round < rounds; ++round) {
        for (int t = 0; t < sc.tasks; ++t) {
            auto &prog = sc.programs[t];
            // Private work.
            Work w;
            w.amount = 1.0 + rng.uniform() * 1000.0;
            w.path = {static_cast<ResourceId>(
                rng.below(sc.resources))};
            if (rng.below(3) == 0)
                w.rateCap = 10.0 + rng.uniform() * 100.0;
            sc.total_demand += w.amount;
            prog.push_back(w);

            if (rng.below(2) == 0) {
                Delay d;
                d.seconds = rng.uniform() * 0.01;
                prog.push_back(d);
            }
        }
        // Pairwise rendezvous (t, t+1).
        for (int t = 0; t < sc.tasks; t += 2) {
            uint64_t key =
                0x1000ULL + static_cast<uint64_t>(round) * 64 + t;
            Rendezvous a;
            a.key = key;
            a.carrier = true;
            a.transfer.amount = 1.0 + rng.uniform() * 500.0;
            a.transfer.path = {static_cast<ResourceId>(
                rng.below(sc.resources))};
            sc.total_demand += a.transfer.amount;
            Rendezvous b;
            b.key = key;
            sc.programs[t].push_back(a);
            sc.programs[t + 1].push_back(b);
        }
        // Periodic barrier.
        if (round % 2 == 0) {
            SyncAll s;
            s.key = 0x9000ULL + round;
            s.expected = sc.tasks;
            for (auto &prog : sc.programs)
                prog.push_back(s);
        }
    }
    return sc;
}

SimTime
runScenario(const Scenario &sc, double *moved = nullptr)
{
    Engine e;
    for (int r = 0; r < sc.resources; ++r)
        e.addResource("r" + std::to_string(r), 100.0);
    for (int t = 0; t < sc.tasks; ++t) {
        e.addTask(TaskProgram(
            "t" + std::to_string(t), sc.programs[t]));
    }
    e.run();
    if (moved) {
        *moved = 0.0;
        for (int r = 0; r < sc.resources; ++r)
            *moved += e.resourceUnitsMoved(r);
    }
    return e.makespan();
}

class EngineStress : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineStress, CompletesAndConservesUnits)
{
    Scenario sc = buildScenario(static_cast<uint64_t>(GetParam()));
    double moved = 0.0;
    SimTime t = runScenario(sc, &moved);
    EXPECT_GT(t, 0.0);
    EXPECT_TRUE(std::isfinite(t));
    // Every flow crosses exactly one resource in this scenario, so
    // units moved must equal units demanded.
    EXPECT_NEAR(moved, sc.total_demand, 1e-6 * sc.total_demand);
}

TEST_P(EngineStress, DeterministicReplay)
{
    Scenario sc = buildScenario(static_cast<uint64_t>(GetParam()));
    SimTime t1 = runScenario(sc);
    SimTime t2 = runScenario(sc);
    EXPECT_DOUBLE_EQ(t1, t2);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, EngineStress,
                         ::testing::Range(1, 40));

TEST(EngineStress, ManyTasksOneResource)
{
    Engine e;
    ResourceId r = e.addResource("r", 1000.0);
    const int n = 48;
    for (int t = 0; t < n; ++t) {
        Work w;
        w.amount = 1000.0;
        w.path = {r};
        e.addTask(TaskProgram(
            "t" + std::to_string(t), std::vector<Prim>{},
            std::vector<Prim>{w}, 10));
    }
    e.run();
    // n tasks x 10 iterations x 1000 units over 1000 units/s.
    EXPECT_NEAR(e.makespan(), n * 10.0, 1e-6 * n * 10.0);
    EXPECT_NEAR(e.resourceUtilization(r), 1.0, 1e-9);
}

TEST(EngineStress, LongDependencyChain)
{
    // A chain of rendezvous passes a baton through 16 tasks.
    Engine e;
    ResourceId r = e.addResource("r", 100.0);
    const int n = 16;
    for (int t = 0; t < n; ++t) {
        std::vector<Prim> prog;
        if (t > 0) {
            Rendezvous recv;
            recv.key = 100 + t;
            prog.push_back(recv);
        }
        Work w;
        w.amount = 100.0;
        w.path = {r};
        prog.push_back(w);
        if (t + 1 < n) {
            Rendezvous send;
            send.key = 100 + t + 1;
            send.carrier = true;
            prog.push_back(send);
        }
        e.addTask(TaskProgram(
            "t" + std::to_string(t), std::move(prog)));
    }
    e.run();
    // Strictly serialized: n seconds.
    EXPECT_NEAR(e.makespan(), static_cast<double>(n), 1e-9);
}

} // namespace
} // namespace mcscope
