/**
 * @file
 * Differential tests of the engine's event core against the retained
 * reference solver.
 *
 * Every audited run turns on the auditor's exact-rate check, which
 * re-solves the whole active flow set through fairShareRatesReference
 * at every allocation and panics unless the rates the dirty-set
 * incremental allocator (closure memo included) assigned match it
 * *bit for bit* -- not merely close.  This drives ~1k randomized
 * scenarios (random paths and caps, empty-path capped flows, delays,
 * barriers, rendezvous pairs) through audited runs.
 *
 * Targeted scenarios then drive the closure memo through eviction,
 * bypass of oversized components, memo-set collisions between
 * different components, departures that split one component into
 * several, and a component whose flows come back in swapped slots,
 * each audited the same way.
 *
 * A second suite pins the component solver itself: on a closed
 * connected component, fairShareSolveComponent must reproduce the
 * rates of a full fairShareRatesReference solve bit-for-bit, which is
 * the algebraic fact the incremental engine path rests on (DESIGN.md
 * section 13).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
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
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** One randomized multi-task scenario. */
struct Scenario
{
    std::vector<double> caps;
    // Per-task primitive scripts.
    std::vector<std::vector<Prim>> scripts;
};

Work
randomWork(Rng &rng, int nr)
{
    Work w;
    w.amount = rng.uniform(0.5, 2000.0);
    w.tag = static_cast<int>(rng.below(4));
    const uint64_t kind = rng.below(12);
    if (kind == 0) {
        // Empty path, capped: pure latency-limited stream.  (The
        // empty-path *uncapped* instantaneous case is exercised by
        // engine_test; under audit its infinite rate is rejected by
        // design, so it stays out of the audited differential runs.)
        w.rateCap = rng.uniform(0.1, 500.0);
        return w;
    }
    const int plen = 1 + static_cast<int>(rng.below(4));
    for (int k = 0; k < plen; ++k) {
        auto r = static_cast<ResourceId>(rng.below(nr));
        bool dup = false;
        for (ResourceId e : w.path)
            dup = dup || e == r;
        if (!dup)
            w.path.push_back(r);
    }
    if (rng.below(3) == 0)
        w.rateCap = rng.uniform(0.1, 500.0);
    return w;
}

Scenario
randomScenario(Rng &rng)
{
    Scenario s;
    const int nr = 1 + static_cast<int>(rng.below(6));
    const int nt = 1 + static_cast<int>(rng.below(8));
    for (int r = 0; r < nr; ++r)
        s.caps.push_back(rng.uniform(0.5, 2000.0));
    s.scripts.resize(nt);

    // Tasks run `nseg` segments of private work separated by global
    // barriers, so the scripts can differ per task without deadlock;
    // after each barrier, adjacent task pairs exchange a rendezvous.
    const int nseg = 1 + static_cast<int>(rng.below(3));
    for (int seg = 0; seg < nseg; ++seg) {
        for (int t = 0; t < nt; ++t) {
            const int nprims = static_cast<int>(rng.below(5));
            for (int p = 0; p < nprims; ++p) {
                if (rng.below(4) == 0) {
                    Delay d;
                    d.seconds = rng.uniform(0.0, 2.0);
                    d.tag = static_cast<int>(rng.below(4));
                    s.scripts[t].push_back(d);
                } else {
                    s.scripts[t].push_back(randomWork(rng, nr));
                }
            }
            if (nt > 1) {
                SyncAll barrier;
                barrier.key = 900000 + seg;
                barrier.expected = nt;
                s.scripts[t].push_back(barrier);
            }
        }
        // Rendezvous pairs (2k, 2k+1) right after the barrier: both
        // sides are guaranteed to arrive, the even side carries.
        for (int t = 0; t + 1 < nt; t += 2) {
            Rendezvous rv;
            rv.key = 800000 + static_cast<uint64_t>(seg) * 1000 + t;
            rv.transfer = randomWork(rng, nr);
            Rendezvous peer = rv;
            rv.carrier = true;
            s.scripts[t].push_back(rv);
            s.scripts[t + 1].push_back(peer);
        }
    }
    return s;
}

struct RunOutcome
{
    uint64_t digest = 0;
    uint64_t checks = 0;
    uint64_t events = 0;
    uint64_t makespanBits = 0;
    std::vector<uint64_t> finishBits;
    Engine::Stats stats;
};

/**
 * Run `s` under an auditor, which the engine puts in exact-rate mode:
 * every allocation must equal the whole-set oracle's bit for bit.
 */
RunOutcome
runScenario(const Scenario &s)
{
    Engine e;
    e.setAuditor(std::make_unique<Auditor>());
    for (size_t r = 0; r < s.caps.size(); ++r)
        e.addResource("r" + std::to_string(r), s.caps[r]);
    for (size_t t = 0; t < s.scripts.size(); ++t)
        e.addTask(TaskProgram(
            "t" + std::to_string(t), s.scripts[t]));
    e.run();
    EXPECT_TRUE(e.auditor()->exactRateCheck());
    RunOutcome out;
    out.digest = e.auditor()->digest();
    out.checks = e.auditor()->allocationsChecked();
    out.events = e.eventCount();
    out.makespanBits = bits(e.makespan());
    for (int t = 0; t < e.taskCount(); ++t)
        out.finishBits.push_back(bits(e.taskFinishTime(t)));
    out.stats = e.stats();
    return out;
}

/**
 * Run `s` audited, demand that the exact-rate check compared every
 * allocation, and return the run's engine counters.
 */
Engine::Stats
expectMatchesReference(const Scenario &s)
{
    RunOutcome out = runScenario(s);
    EXPECT_GT(out.checks, 0u);
    EXPECT_EQ(out.checks, out.stats.allocatorReruns);
    return out.stats;
}

TEST(EngineDiff, OptimizedIsBitIdenticalToReferenceOnRandomScenarios)
{
    Rng rng(0x071f00dbeefULL);
    uint64_t checked = 0;
    for (int iter = 0; iter < 1000; ++iter) {
        Scenario s = randomScenario(rng);
        RunOutcome out = runScenario(s);
        ASSERT_EQ(out.checks, out.stats.allocatorReruns)
            << "iteration " << iter;
        checked += out.checks;
    }
    // Some scenarios start no flow at all; the set as a whole must.
    EXPECT_GT(checked, 1000u);
}

TEST(EngineDiff, OptimizedRunsAreDeterministicAcrossRepeats)
{
    Rng rng(0x1234ULL);
    Scenario s = randomScenario(rng);
    RunOutcome a = runScenario(s);
    RunOutcome b = runScenario(s);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(a.makespanBits, b.makespanBits);
    EXPECT_EQ(a.finishBits, b.finishBits);
    EXPECT_EQ(a.events, b.events);
}

TEST(EngineDiff, OptimizedEngineActuallySolvesIncrementally)
{
    // Many tasks on disjoint private resources replaying one flow
    // each: every dirty component is a single flow whose key repeats,
    // so the memo must serve most of them and no solve may cover the
    // whole flow set.
    Engine e;
    for (int t = 0; t < 16; ++t) {
        ResourceId r = e.addResource("r" + std::to_string(t), 100.0);
        Work w;
        w.amount = 50.0 + t;
        w.path = {r};
        e.addTask(TaskProgram(
            "t" + std::to_string(t), std::vector<Prim>{},
            std::vector<Prim>{w}, 20));
    }
    e.run();
    const Engine::Stats st = e.stats();
    EXPECT_EQ(st.fullSolves, 0u);
    EXPECT_EQ(st.incrementalSolves, st.allocatorReruns);
    EXPECT_GT(st.memoHits, 0u);
    EXPECT_GT(st.calqueueOps, 0u);
}

// --- The closure memo: eviction, bypass, and set collisions. --------

/** A work item on 1-2 resources drawn from [lo, lo + 3), capped. */
Work
groupWork(Rng &rng, int lo)
{
    Work w;
    w.amount = rng.uniform(0.5, 2000.0);
    w.path = {static_cast<ResourceId>(lo + rng.below(3))};
    const auto second = static_cast<ResourceId>(lo + rng.below(3));
    if (second != w.path[0])
        w.path.push_back(second);
    w.rateCap = rng.uniform(0.1, 500.0);
    return w;
}

TEST(EngineDiff, MemoEvictionStaysBitIdentical)
{
    // Task 0 (resources 0-2) plays 3000 distinct works twice over.
    // Each of its components holds exactly one of them, so there are
    // more distinct keys than memo entries and the second pass finds
    // every one evicted.  Task 1 (resources 3-5) replays three works,
    // so its components keep hitting amid the churn.
    Rng rng(0xe71c7ULL);
    Scenario s;
    for (int r = 0; r < 6; ++r)
        s.caps.push_back(rng.uniform(0.5, 2000.0));
    s.scripts.resize(2);
    std::vector<Work> distinct;
    for (int i = 0; i < 3000; ++i)
        distinct.push_back(groupWork(rng, 0));
    for (int pass = 0; pass < 2; ++pass) {
        for (const Work &w : distinct)
            s.scripts[0].push_back(w);
    }
    std::vector<Work> replayed;
    for (int i = 0; i < 3; ++i)
        replayed.push_back(groupWork(rng, 3));
    for (int i = 0; i < 3000; ++i)
        s.scripts[1].push_back(replayed[rng.below(3)]);

    const Engine::Stats st = expectMatchesReference(s);
    // Every one-flow component fits the memo, so each solve is a miss:
    // more of them than the memo holds entries means entries were
    // evicted and solved again.
    EXPECT_GT(st.componentSolves,
              2 * Engine::kMemoSets * Engine::kMemoWays);
    EXPECT_GT(st.memoHits, 0u);
}

TEST(EngineDiff, MemoBypassesOversizedClosuresBitIdentically)
{
    // 24 tasks all cross resource 0, so every component holds every
    // active flow: more than kMemoMaxFlows while all of them run
    // (solved directly), fewer as tasks finish (memoized).
    Rng rng(0xb1a55ULL);
    Scenario s;
    for (int r = 0; r < 4; ++r)
        s.caps.push_back(rng.uniform(0.5, 2000.0));
    s.scripts.resize(24);
    for (auto &script : s.scripts) {
        std::vector<Work> own;
        for (int i = 0; i < 3; ++i) {
            Work w;
            w.amount = rng.uniform(0.5, 2000.0);
            w.path = {0, static_cast<ResourceId>(1 + rng.below(3))};
            if (rng.below(2) == 0)
                w.rateCap = rng.uniform(0.1, 500.0);
            own.push_back(w);
        }
        const int n = 10 + static_cast<int>(rng.below(20));
        for (int p = 0; p < n; ++p)
            script.push_back(own[rng.below(3)]);
    }

    const Engine::Stats st = expectMatchesReference(s);
    EXPECT_GT(st.peakActiveFlows,
              static_cast<int>(Engine::kMemoMaxFlows));
    EXPECT_GT(st.memoHits, 0u);
}

TEST(EngineDiff, MemoSetCollisionsCompareTheFullKey)
{
    // A lone task's component is its current flow, keyed by that
    // flow's interned id, and ids are dense in build order.
    // Collect kMemoWays + 1 ids whose one-flow keys fall in the same
    // memo set as id 0.  Each id's work has its own cap, and the cap
    // is its rate, so a lookup that matched on the set (or a hash)
    // rather than the whole key would hand out a wrong rate.
    std::vector<uint32_t> same;
    const uint32_t zero = 0;
    const size_t target = Engine::closureMemoSet(&zero, 1);
    for (uint32_t id = 0; same.size() < Engine::kMemoWays + 1; ++id) {
        if (Engine::closureMemoSet(&id, 1) == target)
            same.push_back(id);
    }
    auto work = [](uint32_t id) {
        Work w;
        w.amount = 10.0 + id;
        w.path = {0};
        w.rateCap = 1.0 + 0.5 * id;
        return w;
    };

    Scenario s;
    s.caps = {1e6};
    s.scripts.resize(1);
    for (uint32_t id = 0; id <= same.back(); ++id)
        s.scripts[0].push_back(work(id)); // interns ids 0..back
    // Alternate id 0 with each colliding id (same set, different
    // key), then overflow the set's ways so LRU evicts inside it.
    for (int round = 0; round < 4; ++round) {
        for (uint32_t id : same) {
            s.scripts[0].push_back(work(same[0]));
            s.scripts[0].push_back(work(id));
        }
    }

    const Engine::Stats st = expectMatchesReference(s);
    EXPECT_GT(st.memoHits, 0u);
}

TEST(EngineDiff, DepartureSplitsAComponentServedFromTheMemo)
{
    // Three long flows on private resources 0, 1 and 2, and a short
    // bridge flow over all three that comes and goes.  While the
    // bridge runs the four flows are one component; each bridge
    // departure dirties resources 0-2 and leaves three one-flow
    // components, whose keys were solved when the long flows started
    // alone -- so every split is served from the memo, three hits per
    // departure.
    constexpr int kBridges = 40;
    Scenario s;
    s.caps = {100.0, 70.0, 130.0};
    s.scripts.resize(4);
    for (int t = 0; t < 3; ++t) {
        Work w;
        w.amount = 1e6;
        w.path = {static_cast<ResourceId>(t)};
        s.scripts[t].push_back(w);
    }
    Delay gap;
    gap.seconds = 0.25;
    Work bridge;
    bridge.amount = 5.0;
    bridge.path = {0, 1, 2};
    bridge.rateCap = 40.0;
    for (int i = 0; i < kBridges; ++i) {
        s.scripts[3].push_back(gap);
        s.scripts[3].push_back(bridge);
    }

    const Engine::Stats st = expectMatchesReference(s);
    EXPECT_GE(st.memoHits, 3u * kBridges);
    // Solved: the three lone flows once each and the joined component
    // once; everything after that is served from the memo.
    EXPECT_EQ(st.componentSolves, 4u);
}

TEST(EngineDiff, SwappedSlotsServeTheSameComponentFromTheMemo)
{
    // Two tasks share resource 0 through flows x and y, three rounds
    // apart by barriers, trading which task starts which flow.  y is
    // shorter, so each round frees y's slot before x's, and the next
    // round's first start takes x's old slot: whichever task starts
    // first after a barrier, one of rounds 2 and 3 brings {x, y} back
    // with their slots swapped.  The memo key is the sorted multiset
    // of the component's (path, cap) ids, so that round is a hit too:
    // only round 1 solves, once for {x, y} and once for x alone after
    // y leaves.
    Work x;
    x.amount = 100.0;
    x.path = {0};
    Work y;
    y.amount = 10.0;
    y.path = {0, 1};
    y.rateCap = 80.0;
    Scenario s;
    s.caps = {100.0, 1000.0};
    s.scripts.resize(2);
    for (int round = 0; round < 3; ++round) {
        s.scripts[0].push_back(round == 1 ? y : x);
        s.scripts[1].push_back(round == 1 ? x : y);
        for (auto &script : s.scripts) {
            SyncAll barrier;
            barrier.key = 700000 + round;
            barrier.expected = 2;
            script.push_back(barrier);
        }
    }

    const Engine::Stats st = expectMatchesReference(s);
    EXPECT_EQ(st.componentSolves, 2u);
    EXPECT_EQ(st.memoHits, 4u);
}

// --- Component solver: the algebraic core of the incremental path. --

/** Connected components of flows under shared-resource adjacency. */
std::vector<int>
flowComponents(const std::vector<FairShareFlow> &flows, int nr)
{
    std::vector<int> comp(flows.size());
    std::iota(comp.begin(), comp.end(), 0);
    // Union via resource -> representative flow.
    std::vector<int> resRep(nr, -1);
    auto find = [&comp](int f) {
        while (comp[f] != f)
            f = comp[f] = comp[comp[f]];
        return f;
    };
    for (size_t f = 0; f < flows.size(); ++f) {
        for (ResourceId r : flows[f].path) {
            if (resRep[r] < 0) {
                resRep[r] = static_cast<int>(f);
            } else {
                const int a = find(resRep[r]);
                const int b = find(static_cast<int>(f));
                comp[a] = b;
            }
        }
    }
    for (size_t f = 0; f < flows.size(); ++f)
        comp[f] = find(static_cast<int>(f));
    return comp;
}

TEST(SubsetSolver, ComponentSolveMatchesFullReferenceBitForBit)
{
    Rng rng(0x5013e7ULL);
    FairShareScratch scratch;
    int componentsChecked = 0;
    for (int iter = 0; iter < 400; ++iter) {
        const int nr = 1 + static_cast<int>(rng.below(8));
        const int nf = 1 + static_cast<int>(rng.below(24));
        std::vector<double> caps;
        for (int r = 0; r < nr; ++r)
            caps.push_back(rng.uniform(0.5, 2000.0));
        std::vector<FairShareFlow> flows;
        for (int f = 0; f < nf; ++f) {
            FairShareFlow fl;
            const int plen = 1 + static_cast<int>(rng.below(3));
            for (int k = 0; k < plen; ++k) {
                auto r = static_cast<ResourceId>(rng.below(nr));
                bool dup = false;
                for (ResourceId e : fl.path)
                    dup = dup || e == r;
                if (!dup)
                    fl.path.push_back(r);
            }
            if (rng.below(3) == 0)
                fl.rateCap = rng.uniform(0.1, 500.0);
            flows.push_back(std::move(fl));
        }
        const std::vector<double> full =
            fairShareRatesReference(caps, flows);
        const std::vector<int> comp = flowComponents(flows, nr);
        // Solve each component through the component solver and
        // demand the full solve's exact bits.
        for (int f = 0; f < nf; ++f) {
            if (comp[f] != f)
                continue; // not a representative
            std::vector<uint32_t> members;
            std::vector<char> resIn(nr, 0);
            std::vector<ResourceId> resList;
            for (int g = 0; g < nf; ++g) {
                if (comp[g] != f)
                    continue;
                members.push_back(g);
                for (ResourceId r : flows[g].path) {
                    if (!resIn[r]) {
                        resIn[r] = 1;
                        resList.push_back(r);
                    }
                }
            }
            fairShareSolveComponent(caps, flows,
                                    members.data(), members.size(),
                                    resList.data(), resList.size(),
                                    scratch);
            for (size_t k = 0; k < members.size(); ++k) {
                ASSERT_EQ(bits(scratch.rates[k]),
                          bits(full[members[k]]))
                    << "iteration " << iter << " flow " << members[k];
            }
            ++componentsChecked;
        }
    }
    // The generator must actually have produced multi-component
    // scenarios for this test to mean anything.
    EXPECT_GT(componentsChecked, 400);
}

// --- The exact-rate audit gate must actually have teeth. ------------

TEST(EngineDiffDeathTest, ExactRateCheckPanicsOnUlpPerturbedRate)
{
    Auditor a;
    a.setExactRateCheck(true);
    AuditedFlow f;
    f.path = {0};
    f.remaining = 10.0;
    f.owner = 0;
    // Correct max-min rate is exactly 100.0; nudge one ulp.  The
    // epsilon-tolerance invariants all pass, so only the exact-rate
    // cross-check can catch it.
    f.rate = std::nextafter(100.0, 200.0);
    EXPECT_DEATH(a.onAllocation({100.0}, {f}, 0.0),
                 "exact-rate violation");
}

TEST(EngineDiffDeathTest, ExactRateCheckAcceptsOracleRates)
{
    Auditor a;
    a.setExactRateCheck(true);
    AuditedFlow f;
    f.path = {0};
    f.remaining = 10.0;
    f.owner = 0;
    f.rate = 100.0;
    a.onAllocation({100.0}, {f}, 0.0); // must not panic
    EXPECT_EQ(a.allocationsChecked(), 1u);
}

} // namespace
} // namespace mcscope
