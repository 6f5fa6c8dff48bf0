/**
 * @file
 * Workload abstractions: how benchmarks and applications present
 * themselves to the simulator.
 *
 * A Workload knows how to build one simulated task per MPI rank given
 * a machine and an MpiRuntime (which carries the placement and the
 * MPI personality).  Cost models express their demand through the
 * RankProgram builder: compute flops, post-cache memory bytes routed
 * per the rank's NUMA policy, and communication via the simmpi
 * builders.
 */

#ifndef MCSCOPE_KERNELS_WORKLOAD_HH
#define MCSCOPE_KERNELS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "sim/prim.hh"
#include "simmpi/comm.hh"

namespace mcscope {

/** Phase tags used for per-phase time attribution across workloads. */
namespace tags {

constexpr int kDefault = 0;
constexpr int kCompute = 1;
constexpr int kMemory = 2;
constexpr int kComm = 3;
constexpr int kFft = 4;
constexpr int kBaroclinic = 5;
constexpr int kBarotropic = 6;
/** Coherence protocol flows emitted by Machine (machine/coherence.hh). */
constexpr int kCoherence = kCoherenceWorkTag;

} // namespace tags

/**
 * Builder for one rank's primitive stream.
 *
 * Thin sugar over the raw prim structs: routes memory traffic through
 * the rank's placement-derived NUMA spread and compute through the
 * rank's core.
 */
class RankProgram
{
  public:
    /**
     * `sharing` describes how this rank's memory regions are shared
     * across ranks (Workload::sharingSignature()); it is forwarded to
     * Machine::memoryWorks so the coherence model can price
     * invalidation traffic in the modeled modes.
     */
    RankProgram(const Machine &machine, const MpiRuntime &rt, int rank,
                const SharingDescriptor &sharing = {});

    /** The rank this program belongs to. */
    int rank() const { return rank_; }

    /** Append useful flops executed at `efficiency` of peak. */
    void compute(double flops, double efficiency,
                 int tag = tags::kCompute);

    /** Append post-cache memory traffic using the rank's NUMA spread. */
    void memory(double bytes, int tag = tags::kMemory);

    /**
     * Append memory traffic whose single-stream rate cap is scaled by
     * `cap_factor` (< 1 for low-concurrency access patterns such as
     * pointer chasing, gathers, or unprefetched vanilla loops).
     */
    void memoryCapped(double bytes, double cap_factor,
                      int tag = tags::kMemory);

    /** Append memory traffic forced onto one node (ignores policy). */
    void memoryAt(int node, double bytes, int tag = tags::kMemory);

    /** Append a fixed software delay. */
    void delay(SimTime seconds, int tag = tags::kDefault);

    /** Append raw primitives (e.g. from collective builders). */
    void append(std::vector<Prim> prims);

    /** Direct access for simmpi builders. */
    std::vector<Prim> &prims() { return prims_; }

    /** Move the accumulated primitive list out. */
    std::vector<Prim> take() { return std::move(prims_); }

  private:
    const Machine *machine_;
    const MpiRuntime *rt_;
    int rank_;
    SharingDescriptor sharing_;
    std::vector<NodeFraction> spread_;
    std::vector<Prim> prims_;
};

/**
 * A workload: builds one simulated task per rank.
 *
 * Implementations aggregate fine-grained iterations into coarse
 * phases where that does not change contention structure (documented
 * per workload), keeping event counts small.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Workload display name. */
    virtual std::string name() const = 0;

    /**
     * Parameter signature for content-addressed result caching
     * (core/scenario.hh): a string encoding every constructor
     * parameter that influences the simulated result.  Every registry
     * workload (core/registry.hh) overrides it with a non-empty
     * string, so every scenario spec has a digest; the default --
     * empty -- is only for workloads run directly through
     * runExperiment(), and digesting one panics
     * (finishScenarioDigest).  Implementations must fold in every
     * model input, and changing a workload's cost model without
     * bumping kScenarioModelVersion is a cache-poisoning bug.
     */
    virtual std::string signature() const { return ""; }

    /**
     * How this workload's per-rank memory regions are shared across
     * `ranks` ranks.  Consumed by the coherence model (DESIGN.md §15):
     * Directory mode prices invalidation/ownership traffic from it,
     * Snoopy broadcasts regardless.  The honest default for MPI codes
     * is private (each rank owns its partition); workloads whose access
     * pattern is read-shared or migratory override this.
     */
    virtual SharingDescriptor
    sharingSignature(int ranks) const
    {
        (void)ranks;
        return SharingDescriptor::privateData();
    }

    /**
     * Add one task per rank to machine.engine().  `rt` supplies the
     * placement, MPI personality, and sub-layer.
     */
    virtual void buildTasks(Machine &machine,
                            const MpiRuntime &rt) const = 0;
};

/**
 * Convenience base for loop-structured workloads: subclasses provide
 * the per-rank prologue/body/epilogue; buildTasks wraps them into
 * task programs with a leading barrier so all ranks start aligned.
 */
class LoopWorkload : public Workload
{
  public:
    void buildTasks(Machine &machine, const MpiRuntime &rt) const final;

    /** Number of body iterations per rank. */
    virtual uint64_t iterations() const = 0;

    /** Build the per-iteration body for `rank`. */
    virtual std::vector<Prim> body(const Machine &machine,
                                   const MpiRuntime &rt,
                                   int rank) const = 0;

    /** Optional per-rank prologue (before the start barrier). */
    virtual std::vector<Prim>
    prologue(const Machine &machine, const MpiRuntime &rt,
             int rank) const;
};

/** Barrier key namespace reserved for LoopWorkload start barriers. */
constexpr uint64_t kStartBarrierKey = 0xB000000000000000ULL;

/**
 * Number of ranks (including `rank` itself) placed on `rank`'s
 * socket.  Cost models use this for effects the fluid fair-share
 * cannot express: DRAM page conflicts and coherence pressure between
 * co-located streams.
 */
int socketSharers(const Machine &machine, const MpiRuntime &rt, int rank);

} // namespace mcscope

#endif // MCSCOPE_KERNELS_WORKLOAD_HH
