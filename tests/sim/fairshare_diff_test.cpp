/**
 * @file
 * Differential test of the engine's fair-share solver against the
 * retained reference implementation.
 *
 * fairShareSolveComponent() (the engine hot path, reusable
 * workspace), run on every connected component of a flow set in turn
 * -- found here the way the engine finds them, by a breadth-first walk
 * from each resource -- must produce exactly the rates of
 * fairShareRatesReference() (the original allocation-per-call
 * implementation), bit for bit, on every input.  This drives ~1k
 * randomized flow sets -- varying resource counts, path lengths
 * (including paths long enough to spill PathVec's inline storage),
 * caps, and the degenerate empty-path / cap-only flows, which belong
 * to no component -- through both, reusing one scratch workspace
 * across all of them so stale-state bugs would surface as cross-set
 * contamination.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "sim/fairshare.hh"
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

struct Scenario
{
    std::vector<double> caps;
    std::vector<FairShareFlow> flows;
};

Scenario
randomScenario(Rng &rng)
{
    Scenario s;
    const int nr = 1 + static_cast<int>(rng.below(14));
    const int nf = static_cast<int>(rng.below(33)); // may be zero
    for (int r = 0; r < nr; ++r)
        s.caps.push_back(rng.uniform(0.5, 2000.0));
    for (int f = 0; f < nf; ++f) {
        FairShareFlow fl;
        const uint64_t kind = rng.below(10);
        if (kind == 0) {
            // Degenerate: no path, no cap (instantaneous).
        } else if (kind == 1) {
            // Cap-only flow (latency-limited stream off-path).
            fl.rateCap = rng.uniform(0.1, 500.0);
        } else {
            // Path of 1..12 draws; more than 8 distinct hops spill
            // PathVec's inline storage to the heap.
            const int plen = 1 + static_cast<int>(rng.below(12));
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
        }
        s.flows.push_back(std::move(fl));
    }
    return s;
}

/**
 * Rates of every flow: each connected component is found by a
 * breadth-first walk from a resource, sorted by slot, and solved by
 * the component solver.  A flow with no path belongs to no component;
 * only its cap binds (+inf when uncapped).  Returns the number of
 * components solved.
 */
int
solveByComponents(const std::vector<double> &caps,
                  const std::vector<FairShareFlow> &flows,
                  FairShareScratch &scratch, std::vector<double> &rates)
{
    std::vector<PathVec> paths;
    std::vector<double> rateCaps;
    std::vector<std::vector<FlowSlot>> resFlows(caps.size());
    rates.assign(flows.size(), 0.0);
    for (size_t f = 0; f < flows.size(); ++f) {
        paths.push_back(flows[f].path);
        rateCaps.push_back(flows[f].rateCap);
        for (ResourceId r : flows[f].path)
            resFlows[r].push_back(static_cast<FlowSlot>(f));
        if (flows[f].path.empty()) {
            rates[f] = flows[f].rateCap > 0.0
                           ? flows[f].rateCap
                           : std::numeric_limits<double>::infinity();
        }
    }
    std::vector<char> resSeen(caps.size(), 0);
    std::vector<char> flowSeen(flows.size(), 0);
    int components = 0;
    for (size_t seed = 0; seed < caps.size(); ++seed) {
        if (resSeen[seed] || resFlows[seed].empty())
            continue;
        std::vector<ResourceId> res = {static_cast<ResourceId>(seed)};
        std::vector<FlowSlot> members;
        resSeen[seed] = 1;
        for (size_t i = 0; i < res.size(); ++i) {
            for (FlowSlot f : resFlows[res[i]]) {
                if (flowSeen[f])
                    continue;
                flowSeen[f] = 1;
                members.push_back(f);
                for (ResourceId r : paths[f]) {
                    if (!resSeen[r]) {
                        resSeen[r] = 1;
                        res.push_back(r);
                    }
                }
            }
        }
        std::sort(members.begin(), members.end());
        fairShareSolveComponent(caps, paths, rateCaps, members.data(),
                                members.size(), res.data(), res.size(),
                                scratch);
        EXPECT_EQ(scratch.rates.size(), members.size());
        for (size_t k = 0; k < members.size(); ++k)
            rates[members[k]] = scratch.rates[k];
        ++components;
    }
    return components;
}

TEST(FairShareDiff, OptimizedMatchesReferenceOnRandomFlowSets)
{
    Rng rng(0x5eedf00dULL);
    FairShareScratch scratch; // deliberately reused across all sets
    std::vector<double> rates;
    int spilled = 0;
    int multiComponent = 0;
    for (int iter = 0; iter < 1000; ++iter) {
        Scenario s = randomScenario(rng);
        std::vector<double> ref =
            fairShareRatesReference(s.caps, s.flows);
        if (solveByComponents(s.caps, s.flows, scratch, rates) > 1)
            ++multiComponent;
        ASSERT_EQ(rates.size(), ref.size()) << "iteration " << iter;
        for (size_t f = 0; f < ref.size(); ++f) {
            ASSERT_EQ(bits(rates[f]), bits(ref[f]))
                << "iteration " << iter << " flow " << f << ": "
                << rates[f] << " vs " << ref[f];
            if (!s.flows[f].path.inlined())
                ++spilled;
        }
    }
    // The generator must really produce heap-spilled paths and flow
    // sets of several components.
    EXPECT_GT(spilled, 0);
    EXPECT_GT(multiComponent, 0);
}

TEST(FairShareDiff, ScratchReuseDoesNotLeakStateAcrossShrinkingSets)
{
    // A large set followed by a tiny one: every scratch array must be
    // re-extent-ed, not merely overwritten in place.
    std::vector<double> caps_big(16, 100.0);
    std::vector<FairShareFlow> big;
    for (int f = 0; f < 64; ++f) {
        FairShareFlow fl;
        fl.path = {static_cast<ResourceId>(f % 16)};
        big.push_back(std::move(fl));
    }
    FairShareScratch scratch;
    std::vector<double> rates;
    EXPECT_EQ(solveByComponents(caps_big, big, scratch, rates), 16);
    ASSERT_EQ(rates.size(), 64u);
    EXPECT_DOUBLE_EQ(rates[0], 25.0);

    std::vector<double> caps_small = {10.0};
    std::vector<FairShareFlow> small;
    FairShareFlow fl;
    fl.path = {0};
    small.push_back(std::move(fl));
    solveByComponents(caps_small, small, scratch, rates);
    ASSERT_EQ(scratch.rates.size(), 1u);
    EXPECT_DOUBLE_EQ(scratch.rates[0], 10.0);
}

} // namespace
} // namespace mcscope
