/**
 * @file
 * Max-min fair rate allocation (progressive filling) with per-flow
 * rate caps.
 *
 * Given a set of resources with capacities and a set of flows, each of
 * which simultaneously occupies a subset of the resources and may carry
 * an individual rate ceiling, computes the max-min fair allocation:
 * rates are raised together until a flow hits its cap or a resource
 * saturates; saturated participants freeze and filling continues.
 *
 * This is the classic fluid model for bandwidth sharing; it is what
 * turns "two cores stream through one memory controller" into "each
 * gets half" and "flows crossing a congested HyperTransport rung slow
 * down together".
 */

#ifndef MCSCOPE_SIM_FAIRSHARE_HH
#define MCSCOPE_SIM_FAIRSHARE_HH

#include <vector>

#include "sim/prim.hh"

namespace mcscope {

/** Input description of one flow for the allocator. */
struct FairShareFlow
{
    /** Resources occupied concurrently (indices into capacities). */
    PathVec path;

    /** Per-flow ceiling in units/s; <= 0 means unconstrained. */
    double rateCap = 0.0;
};

/**
 * Reusable workspace for the progressive-filling allocator.
 *
 * The engine reruns the allocator at every flow-set change -- tens of
 * thousands of times per simulation -- and each run needs five
 * scratch arrays.  Keeping one FairShareScratch alive across calls
 * means the arrays are sized once and every later call is
 * allocation-free.  A scratch carries no state between calls other
 * than buffer capacity; it may be reused across unrelated flow sets.
 */
struct FairShareScratch
{
    /** Output: one rate per selected flow, valid after a solve. */
    std::vector<double> rates;

    // Internal working arrays (exposed so the workspace is a plain
    // aggregate; contents are unspecified between calls).
    std::vector<char> frozen;
    std::vector<double> residual;
    std::vector<int> users;
    std::vector<char> saturated;
};

/**
 * The allocation-per-call implementation, retained as the
 * differential-testing oracle: fairShareSolveComponent() must match it
 * bit for bit on every component, and the auditor's exact-rate check
 * (sim/audit.hh) compares every audited allocation against it (see
 * also tests/sim/fairshare_diff_test.cpp).  It discovers the
 * connected components of the flow/resource graph itself and fills
 * each independently -- a component's rates are a function of that
 * component alone, which is what lets the dirty-set incremental
 * engine carry rates of untouched components across solves and still
 * agree with a fresh whole-set solve bitwise.  Its data layout is
 * deliberately independent of the engine's.
 */
std::vector<double>
fairShareRatesReference(const std::vector<double> &capacities,
                        const std::vector<FairShareFlow> &flows);

/**
 * Progressive filling over one connected component of the
 * flow/resource graph -- the engine's one solver, run on each
 * component its dirty resources reach.
 *
 * Flows live in slot-indexed parallel arrays (the engine's
 * structure-of-arrays state): `paths[s]` and `rateCaps[s]` describe
 * the flow in slot s.  `flowSlots[0..flowCount)` selects the
 * component's flows and `resources[0..resourceCount)` its resources,
 * both in any order.  Rates land in scratch.rates[k] for the k-th
 * selected flow.
 *
 * Caller contract -- this is what makes a component solve
 * bit-identical to the whole-set reference (see DESIGN §13): the
 * selection is exactly one connected component.  Every resource on a
 * selected flow's path appears in `resources`, every flow crossing a
 * selected resource appears in `flowSlots`, and every selected path is
 * non-empty.
 *
 * The arithmetic is the reference's, and neither solver depends on
 * the order of the flows: each flow's rate is a function of its own
 * (path, cap) and of the component's multiset of (path, cap) pairs.
 * Within a round:
 *  - `next` is a min over resource shares and unfrozen caps, and a
 *    min does not depend on order;
 *  - the saturated set is fixed from the residuals before any freeze,
 *    so which flows freeze depends on each flow's path and cap alone;
 *  - every flow frozen in the round gets the same rate, `next`: a cap
 *    binds only within `tol` above `next`, since `next` is already the
 *    minimum over the unfrozen caps, and every unfrozen cap lies above
 *    the previous level that may raise `next` (so the reference's
 *    min(next, cap) is always `next`);
 *  - so each residual takes k subtractions of that one value (each
 *    clamped at 0), which give the same bits in any order.
 * A flow set repeated in another order -- including equal (path, cap)
 * flows and a resource repeated on one path -- therefore gets the same
 * rate bits per (path, cap), which is what lets the engine's closure
 * memo key a component by its sorted ids.  scratch.residual/users/
 * saturated are used as full-size (one per resource id) arrays with
 * only the component's entries initialized, so no per-call O(total
 * resources) work occurs.
 */
void fairShareSolveComponent(const std::vector<double> &capacities,
                             const std::vector<PathVec> &paths,
                             const std::vector<double> &rateCaps,
                             const FlowSlot *flowSlots, size_t flowCount,
                             const ResourceId *resources,
                             size_t resourceCount,
                             FairShareScratch &scratch);

} // namespace mcscope

#endif // MCSCOPE_SIM_FAIRSHARE_HH
