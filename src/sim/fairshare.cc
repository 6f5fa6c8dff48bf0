#include "sim/fairshare.hh"

#include <cmath>
#include <limits>

#include "util/logging.hh"

namespace mcscope {

void
fairShareSolveComponent(const std::vector<double> &capacities,
                        const std::vector<PathVec> &paths,
                        const std::vector<double> &rateCaps,
                        const FlowSlot *flowSlots, size_t flowCount,
                        const ResourceId *resources, size_t resourceCount,
                        FairShareScratch &scratch)
{
    const size_t nr = capacities.size();
    const double inf = std::numeric_limits<double>::infinity();

    scratch.rates.assign(flowCount, 0.0);
    scratch.frozen.assign(flowCount, 0);
    // Full-size sparse arrays: only component entries are
    // (re)initialized, the rest hold stale junk that is never read.
    // resize() instead of assign() keeps the per-call cost
    // proportional to the component.
    if (scratch.residual.size() < nr) {
        scratch.residual.resize(nr, 0.0);
        scratch.users.resize(nr, 0);
        scratch.saturated.resize(nr, 0);
    }

    std::vector<double> &rates = scratch.rates;
    std::vector<char> &frozen = scratch.frozen;
    std::vector<double> &residual = scratch.residual;
    std::vector<int> &users = scratch.users;
    std::vector<char> &saturated = scratch.saturated;

    for (size_t i = 0; i < resourceCount; ++i) {
        const ResourceId r = resources[i];
        MCSCOPE_ASSERT(r >= 0 && static_cast<size_t>(r) < nr,
                       "component references unknown resource ", r);
        residual[r] = capacities[r];
        users[r] = 0;
        saturated[r] = 0;
    }
    for (size_t k = 0; k < flowCount; ++k) {
        for (ResourceId r : paths[flowSlots[k]])
            ++users[r];
    }

    // All unfrozen flows rise at a common level; each round the
    // binding constraint is the smallest of (a) a flow's cap and (b) a
    // resource's residual fair share.  Freeze everything at that level
    // and continue.  Only this component's flows take part: a global
    // level sequence would let the per-round tolerance merge
    // near-equal constraints across unrelated components, leaking
    // their bits into each other (DESIGN §13).
    size_t unfrozen = flowCount;
    double level = 0.0;
    while (unfrozen > 0) {
        double next = inf;
        for (size_t i = 0; i < resourceCount; ++i) {
            const ResourceId r = resources[i];
            if (users[r] > 0) {
                double share = residual[r] / users[r];
                if (share < next)
                    next = share;
            }
        }
        for (size_t k = 0; k < flowCount; ++k) {
            const FlowSlot s = flowSlots[k];
            if (!frozen[k] && rateCaps[s] > 0.0 && rateCaps[s] < next)
                next = rateCaps[s];
        }
        MCSCOPE_ASSERT(std::isfinite(next),
                       "progressive filling found no binding constraint");
        // Guard against capacity exhaustion from earlier freezes.
        if (next < level)
            next = level;

        const double tol = 1e-12 * (next > 1.0 ? next : 1.0);

        // Identify saturated resources at this level.
        for (size_t i = 0; i < resourceCount; ++i) {
            const ResourceId r = resources[i];
            saturated[r] =
                users[r] > 0 && residual[r] / users[r] <= next + tol;
        }

        // Freeze flows that hit a cap or cross a saturated resource.
        size_t frozen_this_round = 0;
        for (size_t k = 0; k < flowCount; ++k) {
            if (frozen[k])
                continue;
            const FlowSlot s = flowSlots[k];
            bool freeze = rateCaps[s] > 0.0 && rateCaps[s] <= next + tol;
            if (!freeze) {
                for (ResourceId r : paths[s]) {
                    if (saturated[r]) {
                        freeze = true;
                        break;
                    }
                }
            }
            if (freeze) {
                // Every flow frozen this round gets `next`: no unfrozen
                // cap lies below it (fairshare.hh).
                rates[k] = next;
                frozen[k] = 1;
                ++frozen_this_round;
                for (ResourceId r : paths[s]) {
                    residual[r] -= next;
                    if (residual[r] < 0.0)
                        residual[r] = 0.0;
                    --users[r];
                }
                --unfrozen;
            }
        }
        MCSCOPE_ASSERT(frozen_this_round > 0,
                       "progressive filling made no progress");
        level = next;
    }
}

std::vector<double>
fairShareRatesReference(const std::vector<double> &capacities,
                        const std::vector<FairShareFlow> &flows)
{
    const size_t nr = capacities.size();
    const size_t nf = flows.size();
    const double inf = std::numeric_limits<double>::infinity();

    std::vector<double> rates(nf, 0.0);
    std::vector<bool> frozen(nf, false);
    std::vector<double> residual(capacities);
    std::vector<int> users(nr, 0);

    for (size_t f = 0; f < nf; ++f) {
        const auto &flow = flows[f];
        if (flow.path.empty()) {
            // No resource contention: only the cap (if any) binds.
            rates[f] = flow.rateCap > 0.0 ? flow.rateCap : inf;
            frozen[f] = true;
            continue;
        }
        for (ResourceId r : flow.path) {
            MCSCOPE_ASSERT(r >= 0 && static_cast<size_t>(r) < nr,
                           "flow references unknown resource ", r);
            ++users[r];
        }
    }

    // Connected components of the flow/resource bipartite graph,
    // found by search over an explicit adjacency.
    std::vector<std::vector<int>> resFlows(nr);
    for (size_t f = 0; f < nf; ++f) {
        if (frozen[f])
            continue;
        for (ResourceId r : flows[f].path)
            resFlows[r].push_back(static_cast<int>(f));
    }
    std::vector<int> flowComp(nf, -1);
    std::vector<int> resComp(nr, -1);
    int ncomp = 0;
    std::vector<ResourceId> work;
    for (size_t f0 = 0; f0 < nf; ++f0) {
        if (frozen[f0] || flowComp[f0] >= 0)
            continue;
        const int c = ncomp++;
        flowComp[f0] = c;
        for (ResourceId r : flows[f0].path) {
            if (resComp[r] < 0) {
                resComp[r] = c;
                work.push_back(r);
            }
        }
        while (!work.empty()) {
            const ResourceId r = work.back();
            work.pop_back();
            for (int f : resFlows[r]) {
                if (flowComp[f] >= 0)
                    continue;
                flowComp[f] = c;
                for (ResourceId rr : flows[f].path) {
                    if (resComp[rr] < 0) {
                        resComp[rr] = c;
                        work.push_back(rr);
                    }
                }
            }
        }
    }

    // Progressive filling per component: all of a component's unfrozen
    // flows rise at a common level; each round the binding constraint
    // is the smallest of (a) a flow's cap and (b) a resource's
    // residual fair share.  Freeze everything at that level and
    // continue.  Components never interact -- see
    // fairShareSolveComponent for why that independence is
    // load-bearing.
    for (int c = 0; c < ncomp; ++c) {
        size_t unfrozen = 0;
        for (size_t f = 0; f < nf; ++f) {
            if (!frozen[f] && flowComp[f] == c)
                ++unfrozen;
        }
        double level = 0.0;
        while (unfrozen > 0) {
            double next = inf;
            for (size_t r = 0; r < nr; ++r) {
                if (resComp[r] == c && users[r] > 0) {
                    double share = residual[r] / users[r];
                    if (share < next)
                        next = share;
                }
            }
            for (size_t f = 0; f < nf; ++f) {
                if (flowComp[f] == c && !frozen[f] &&
                    flows[f].rateCap > 0.0 && flows[f].rateCap < next) {
                    next = flows[f].rateCap;
                }
            }
            MCSCOPE_ASSERT(std::isfinite(next),
                           "progressive filling found no binding "
                           "constraint");
            // Guard against capacity exhaustion from earlier freezes.
            if (next < level)
                next = level;

            const double tol = 1e-12 * (next > 1.0 ? next : 1.0);

            // Identify saturated resources at this level.
            std::vector<bool> saturated(nr, false);
            for (size_t r = 0; r < nr; ++r) {
                if (resComp[r] == c && users[r] > 0 &&
                    residual[r] / users[r] <= next + tol) {
                    saturated[r] = true;
                }
            }

            // Freeze flows that hit a cap or cross a saturated
            // resource.
            size_t frozen_this_round = 0;
            for (size_t f = 0; f < nf; ++f) {
                if (frozen[f] || flowComp[f] != c)
                    continue;
                bool freeze = flows[f].rateCap > 0.0 &&
                              flows[f].rateCap <= next + tol;
                if (!freeze) {
                    for (ResourceId r : flows[f].path) {
                        if (saturated[r]) {
                            freeze = true;
                            break;
                        }
                    }
                }
                if (freeze) {
                    double rate = next;
                    if (flows[f].rateCap > 0.0 &&
                        flows[f].rateCap < rate) {
                        rate = flows[f].rateCap;
                    }
                    rates[f] = rate;
                    frozen[f] = true;
                    ++frozen_this_round;
                    for (ResourceId r : flows[f].path) {
                        residual[r] -= rate;
                        if (residual[r] < 0.0)
                            residual[r] = 0.0;
                        --users[r];
                    }
                    --unfrozen;
                }
            }
            MCSCOPE_ASSERT(frozen_this_round > 0,
                           "progressive filling made no progress");
            level = next;
        }
    }
    return rates;
}

} // namespace mcscope
