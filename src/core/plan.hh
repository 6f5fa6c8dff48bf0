/**
 * @file
 * SweepPlan: the grid expander of the scenario pipeline.
 *
 * A plan turns axis lists (workloads x MPI implementations x
 * sub-layers x rank counts x numactl options on one machine) into a
 * flat, deduplicated vector of ScenarioSpecs plus an index that maps
 * every grid point back to its spec.  Deduplication means a batch
 * that mentions the same point twice -- or a spec file regenerated
 * with overlapping axes -- costs one simulation, and the runner
 * (core/runner.hh) sees only unique work.  Each unique spec also
 * keeps the digest of its canonical text, taken while deduplicating,
 * so executors finish content digests (digest()) without
 * re-canonicalizing a spec.
 *
 * Grid-point ordering is fixed and documented: workloads outermost,
 * then impls, sublayers, rank counts, and options innermost.  The
 * (rank, option) matrix of the paper's tables is the two innermost
 * axes, which is how optionSweepSlice() (core/runner.hh) reads it.
 *
 * Every workload a plan names is a registry name (core/registry.hh),
 * checked when the plan is expanded; every registry workload has a
 * parameter signature, so every spec has a content digest.
 */

#ifndef MCSCOPE_CORE_PLAN_HH
#define MCSCOPE_CORE_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario.hh"

namespace mcscope {

/**
 * Most grid points one batch spec may name (SweepPlan::fromJson).  The
 * axis product is checked before anything is expanded, so a spec of a
 * few kilobytes cannot make the parser -- or the serve daemon's loop
 * -- try to allocate ~10^12 points.  The largest shipped spec names a
 * few hundred.
 */
constexpr size_t kMaxPlanPoints = 65536;

/** Axis lists a plan expands; empty axes get the documented default. */
struct SweepAxes
{
    /** Preset name, or empty + inline `machine`. */
    std::string machinePreset = "longs";
    MachineConfig machine;

    /** Registry workload names; must be non-empty. */
    std::vector<std::string> workloads;

    /** Default: the six Table 5 options. */
    std::vector<NumactlOption> options;

    /** Default: powers of two up to the machine's core count. */
    std::vector<int> rankCounts;

    /** Default: {OpenMPI}. */
    std::vector<MpiImpl> impls;

    /** Default: {USysV}. */
    std::vector<SubLayer> sublayers;

    /**
     * Directory-size sweep axis: each entry expands the whole grid
     * once more on a machine variant with coherence mode forced to
     * Directory and `coherence.directoryEntries` set to the entry.
     * Empty (the default) means a single variant: the base machine as
     * configured.  Variants are the outermost grid dimension.
     */
    std::vector<double> directoryEntries;

    /**
     * Machine sweep axis (the zoo): each entry is a (preset token,
     * config) pair.  The token is non-empty only for builtin presets,
     * so builtin entries keep the digest-preserving preset collapse
     * while registry/inline machines travel fully expanded.  Empty
     * means one machine, taken from machinePreset/machine.  Mutually
     * exclusive with directoryEntries; like it, the outermost grid
     * dimension.
     */
    std::vector<std::pair<std::string, MachineConfig>> machines;

    double latencyNoise = 1.0;

    /**
     * Phase the rendered cells report ("fft", "baroclinic" or
     * "barotropic"); empty reports each point's makespan.  Only a
     * view of the results: no spec carries it, so it changes no
     * canonical text, digest or record.
     */
    std::string phase;

    /** Work tag behind `phase` (kernels/workload.hh), -1 when empty. */
    int phaseTag() const;

    /**
     * The machine config the axes describe (preset resolved).  With a
     * machines axis this is the first entry; per-variant configs come
     * from variantMachine().
     */
    MachineConfig resolvedMachine() const;

    /** Number of machine variants the grid expands over (>= 1). */
    size_t
    machineVariants() const
    {
        if (!machines.empty())
            return machines.size();
        return directoryEntries.empty() ? 1 : directoryEntries.size();
    }

    /** Machine for variant `m` (machines entry / directory override). */
    MachineConfig variantMachine(size_t m) const;

    /**
     * Preset token behind variant `m`, or "" when the variant must be
     * spelled inline in specs (zoo machines, directory variants).
     */
    std::string variantPreset(size_t m) const;
};

/** A deduplicated, executable expansion of a sweep. */
class SweepPlan
{
  public:
    /**
     * Expand a full grid; fatal() on unknown workload names, with the
     * nearest-name hint of unknownWorkloadMessage().
     */
    static SweepPlan expand(const SweepAxes &axes);

    /**
     * Build a plan from an explicit spec list (for irregular point
     * sets like Figure 10's option/sublayer combos).  Specs are
     * canonicalized and deduplicated; grid points map 1:1 onto the
     * input order.
     */
    static SweepPlan fromSpecs(const std::vector<ScenarioSpec> &specs);

    /**
     * Parse a batch spec file:
     *
     *   {
     *     "machine": "longs" | { ...inline config... },
     *     "workloads": ["nas-cg-b", "nas-ft-b"],
     *     "ranks": [2, 4, 8, 16],
     *     "options": [0, "membind"],          // default: all six
     *     "impls": ["openmpi"],               // default
     *     "sublayers": ["usysv"],             // default
     *     "latency_noise": 1.0,               // default
     *     "phase": "fft"                      // default: makespan
     *   }
     *
     * Returns nullopt and sets `error` on malformed input; unknown
     * keys and unknown workload names are errors (with a nearest-name
     * suggestion), and so is a grid of more than kMaxPlanPoints
     * points.
     */
    static std::optional<SweepPlan> fromJson(const JsonValue &doc,
                                            std::string *error);

    /** Unique specs, in first-appearance order. */
    const std::vector<ScenarioSpec> &specs() const { return specs_; }

    /** Grid points (>= specs().size(); duplicates share a spec). */
    size_t pointCount() const { return pointSpec_.size(); }

    /** Spec index behind grid point `point`. */
    size_t specIndex(size_t point) const;

    /** Spec behind grid point `point`. */
    const ScenarioSpec &pointSpec(size_t point) const;

    /**
     * Content digest of spec `i`, given its registry workload
     * instance (makeWorkload(specs()[i].workload)): equal to
     * specs()[i].digest(), finished (finishScenarioDigest) from the
     * text digest the plan computed once while deduplicating, so
     * executing a plan never re-canonicalizes a spec.
     */
    uint64_t digest(size_t i, const Workload &workload) const;

    /**
     * digest(i, *makeWorkload(specs()[i].workload)) for every spec: the
     * cache, journal and dedup keys of the plan.
     */
    std::vector<uint64_t> digests() const;

    /** Axes (only meaningful for expand()/fromJson() plans). */
    const SweepAxes &axes() const { return axes_; }
    bool hasAxes() const { return hasAxes_; }

    /**
     * Flat index of grid coordinate (workload w, impl i, sublayer s,
     * rank r, option o) for an axes-based plan.  `m` selects the
     * machine variant (directory-size sweeps); plans without a
     * variant axis have exactly one, m = 0.
     */
    size_t pointIndex(size_t w, size_t i, size_t s, size_t r,
                      size_t o, size_t m = 0) const;

  private:
    /** Canonical text -> spec index, while a plan is being built. */
    using Seen = std::map<std::string, size_t>;

    /** Append a grid point for canonical `spec` with canonical `text`. */
    void addPoint(ScenarioSpec spec, std::string text, Seen &seen);

    std::vector<ScenarioSpec> specs_;
    std::vector<uint64_t> textDigests_; // canonicalTextDigest per spec
    std::vector<size_t> pointSpec_; // grid point -> spec index
    SweepAxes axes_;
    bool hasAxes_ = false;
};

} // namespace mcscope

#endif // MCSCOPE_CORE_PLAN_HH
