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
 * contamination.  A second property drives flow sets through both
 * solvers in shuffled orders: each flow's rate must not depend on
 * where its flow sits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
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

/** Put `v` in a random order. */
template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

/**
 * Rates of every flow: each connected component is found by a
 * breadth-first walk from a resource, sorted by slot (or, given
 * `order`, shuffled together with its resource list), and solved by
 * the component solver.  A flow with no path belongs to no component;
 * only its cap binds (+inf when uncapped).  Returns the number of
 * components solved.
 */
int
solveByComponents(const std::vector<double> &caps,
                  const std::vector<FairShareFlow> &flows,
                  FairShareScratch &scratch, std::vector<double> &rates,
                  Rng *order = nullptr)
{
    std::vector<std::vector<uint32_t>> resFlows(caps.size());
    rates.assign(flows.size(), 0.0);
    for (size_t f = 0; f < flows.size(); ++f) {
        for (ResourceId r : flows[f].path)
            resFlows[r].push_back(static_cast<uint32_t>(f));
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
        std::vector<uint32_t> members;
        resSeen[seed] = 1;
        for (size_t i = 0; i < res.size(); ++i) {
            for (uint32_t f : resFlows[res[i]]) {
                if (flowSeen[f])
                    continue;
                flowSeen[f] = 1;
                members.push_back(f);
                for (ResourceId r : flows[f].path) {
                    if (!resSeen[r]) {
                        resSeen[r] = 1;
                        res.push_back(r);
                    }
                }
            }
        }
        if (order != nullptr) {
            shuffle(members, *order);
            shuffle(res, *order);
        } else {
            std::sort(members.begin(), members.end());
        }
        fairShareSolveComponent(caps, flows, members.data(),
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

/**
 * A flow set built to stress order: a few (path, cap) kinds, each
 * repeated 1-3 times; paths may cross one resource twice; some caps
 * equal a resource's first-round share exactly or lie a few ulps off
 * it, inside the solvers' tolerance.  Sets `ties`, `repeats` and
 * `duplicates` when the set has one of each.
 */
Scenario
orderScenario(Rng &rng, bool &ties, bool &repeats, bool &duplicates)
{
    Scenario s;
    const int nr = 1 + static_cast<int>(rng.below(6));
    for (int r = 0; r < nr; ++r)
        s.caps.push_back(rng.uniform(0.5, 2000.0));
    const int kinds = 1 + static_cast<int>(rng.below(6));
    // Per flow: ulps between its cap and a share, or kNoTie.
    constexpr int kNoTie = 100;
    std::vector<int> tieUlps;
    for (int k = 0; k < kinds; ++k) {
        FairShareFlow fl;
        const int plen = 1 + static_cast<int>(rng.below(4));
        for (int h = 0; h < plen; ++h) {
            const auto r = static_cast<ResourceId>(rng.below(nr));
            for (ResourceId e : fl.path)
                repeats = repeats || e == r;
            fl.path.push_back(r);
        }
        const uint64_t cap = rng.below(3);
        if (cap == 1)
            fl.rateCap = rng.uniform(0.1, 500.0);
        const int ulps =
            cap == 2 ? static_cast<int>(rng.below(5)) - 2 : kNoTie;
        const uint64_t copies = 1 + rng.below(3);
        duplicates = duplicates || copies > 1;
        for (uint64_t c = 0; c < copies; ++c) {
            s.flows.push_back(fl);
            tieUlps.push_back(ulps);
        }
    }
    // A tied cap is the first-round share of the flow's first
    // resource, computed exactly as the solvers compute it, then moved
    // by its kind's ulps.
    std::vector<int> users(s.caps.size(), 0);
    for (const FairShareFlow &fl : s.flows) {
        for (ResourceId r : fl.path)
            ++users[r];
    }
    for (size_t f = 0; f < s.flows.size(); ++f) {
        if (tieUlps[f] != kNoTie) {
            const ResourceId r = s.flows[f].path[0];
            double cap = s.caps[r] / users[r];
            const double toward = tieUlps[f] < 0 ? 0.0 : 1e300;
            for (int u = 0; u < std::abs(tieUlps[f]); ++u)
                cap = std::nextafter(cap, toward);
            s.flows[f].rateCap = cap;
            ties = true;
        }
    }
    return s;
}

TEST(FairShareDiff, RatesDoNotDependOnFlowOrder)
{
    // The closure memo keys a component by the sorted multiset of its
    // flows' (path, cap) ids, so a flow set that comes back in another
    // slot order must get the same rate bits per flow from both
    // solvers -- with equal flows, caps tied to a share, and a
    // resource twice on one path included.
    Rng rng(0x0bde7ULL);
    FairShareScratch scratch;
    std::vector<double> rates;
    int ties = 0;
    int repeats = 0;
    int duplicates = 0;
    for (int iter = 0; iter < 500; ++iter) {
        bool tie = false;
        bool repeat = false;
        bool duplicate = false;
        const Scenario s = orderScenario(rng, tie, repeat, duplicate);
        ties += tie;
        repeats += repeat;
        duplicates += duplicate;
        const std::vector<double> ref =
            fairShareRatesReference(s.caps, s.flows);
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<size_t> perm(s.flows.size());
            std::iota(perm.begin(), perm.end(), size_t{0});
            shuffle(perm, rng);
            std::vector<FairShareFlow> permuted;
            for (size_t i : perm)
                permuted.push_back(s.flows[i]);
            const std::vector<double> permutedRef =
                fairShareRatesReference(s.caps, permuted);
            solveByComponents(s.caps, permuted, scratch, rates, &rng);
            for (size_t i = 0; i < perm.size(); ++i) {
                ASSERT_EQ(bits(permutedRef[i]), bits(ref[perm[i]]))
                    << "reference, iteration " << iter << " flow "
                    << perm[i];
                ASSERT_EQ(bits(rates[i]), bits(ref[perm[i]]))
                    << "component solver, iteration " << iter
                    << " flow " << perm[i];
            }
        }
    }
    // The generator must really produce each order hazard.
    EXPECT_GT(ties, 0);
    EXPECT_GT(repeats, 0);
    EXPECT_GT(duplicates, 0);
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
