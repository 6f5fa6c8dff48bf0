/**
 * @file
 * ScenarioSpec: the declarative description of one experiment point.
 *
 * The experiment pipeline is split into three layers (DESIGN.md §9):
 *
 *   Spec    what to simulate -- this module.  A serializable value
 *           object holding the workload name, the machine (preset
 *           name or inline MachineConfig), the numactl option, rank
 *           count, MPI implementation, sub-layer, and latency-noise
 *           factor.  Everything that determines the simulated result,
 *           and nothing that does not: observer settings (audit,
 *           timelines, tracing) live in RunnerOptions, because they
 *           must never change the numbers.
 *
 *   Plan    which specs a sweep expands to (core/plan.hh).
 *
 *   Execute how specs become RunResults, and how results are cached
 *           by content digest (core/runner.hh).
 *
 * A spec round-trips through JSON (parseScenarioSpec /
 * ScenarioSpec::toJson) and has a canonical single-line serialization
 * (canonicalText) whose key order is fixed, so two specs that differ
 * only in JSON key order or machine-preset spelling canonicalize
 * identically.
 *
 * The content digest (scenarioDigest) is an FNV-1a hash over the
 * canonical text with the machine always expanded inline, plus the
 * workload's parameter signature (Workload::signature), every
 * calibrated model constant (core/calibration.hh), and the model
 * version string below.  A digest therefore identifies a unique
 * simulation *result*: change a calibration constant, a workload
 * parameter, or the cost models (bump kScenarioModelVersion!) and the
 * digest moves, so stale cache entries can never be mistaken for
 * current ones.  A spec names a registry workload, and every registry
 * workload has a signature, so every spec has a digest.
 */

#ifndef MCSCOPE_CORE_SCENARIO_HH
#define MCSCOPE_CORE_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <string>

#include "core/experiment.hh"
#include "machine/serialize.hh"
#include "util/json.hh"

namespace mcscope {

/**
 * Version stamp folded into every scenario digest.  Bump whenever a
 * cost model, the engine's allocation math, or a workload generator
 * changes behavior: old cache entries become unreachable instead of
 * silently wrong.
 */
constexpr const char *kScenarioModelVersion = "mcscope-model-2";

/** Declarative description of one experiment point. */
struct ScenarioSpec
{
    /** Registry workload name (core/registry.hh). */
    std::string workload;

    /**
     * Preset name ("tiger", "dmz", "longs") when the spec came from a
     * preset; empty for inline machine configs.  `machine` is always
     * the resolved config either way.
     */
    std::string machinePreset;
    MachineConfig machine;

    NumactlOption option; // a Table 5 row, or a custom combination
    int ranks = 1;
    MpiImpl impl = MpiImpl::OpenMpi;
    SubLayer sublayer = SubLayer::USysV;
    double latencyNoise = 1.0;

    /** Build a spec from a legacy ExperimentConfig + workload name. */
    static ScenarioSpec fromExperiment(const ExperimentConfig &config,
                                       const std::string &workload_name);

    /** The ExperimentConfig this spec describes. */
    ExperimentConfig toExperiment() const;

    /**
     * Normalize in place: workload aliases resolve to registry names
     * ("stream-triad" -> "stream"), the preset name lower-cases and
     * re-resolves `machine`, and a preset spelled inline collapses
     * back to its preset name.
     *
     * Returns the canonical JSON of the resolved machine -- the text
     * canonicalText() embeds -- so callers composing the canonical
     * text next (canonicalTextWith) serialize the machine once: a
     * preset's text is cached, and an inline machine's is the dump
     * the preset-collapse compare already made.
     */
    std::string canonicalize();

    /** Serialize (preset kept symbolic when set). */
    JsonValue toJson() const;

    /**
     * Canonical single-line serialization: canonicalized spec, sorted
     * keys, machine expanded inline.  Two specs are the same
     * experiment iff their canonical texts are equal.  Costs one
     * machine serialization for an inline machine, none for a preset.
     */
    std::string canonicalText() const;

    /**
     * canonicalText() around a pre-serialized machine: `machineJson`
     * must be what canonicalize() returned for this spec's machine
     * (or for any spec on the same resolved machine).  Lets a plan
     * serialize each machine once for all the specs it expands on it.
     */
    std::string canonicalTextWith(const std::string &machineJson) const;

    /**
     * Content digest of the simulation result this spec names; see
     * the file comment.  fatal() when the workload name is unknown
     * (the digest folds in the workload's parameter signature).
     */
    uint64_t digest() const;

    /**
     * digest() with the registry workload already instantiated: `w`
     * must be makeWorkload(workload), which lets an executor that
     * needs the instance anyway skip a second construction.
     */
    uint64_t digestWith(const Workload &w) const;
};

/**
 * The workload-independent half of a scenario digest: FNV-1a over the
 * canonical text, seeded with calibrationDigest().  A SweepPlan keeps
 * one per unique spec.
 */
uint64_t canonicalTextDigest(const std::string &canonicalText);

/**
 * The one step that finishes every scenario digest (digest(),
 * digestWith(), SweepPlan::digest()): fold the workload's parameter
 * signature into a canonicalTextDigest().  Every registry workload
 * has a signature, so every spec has a digest; an empty signature is
 * a programming error and panics.
 */
uint64_t finishScenarioDigest(uint64_t textDigest, const Workload &w);

/** Equality = same canonical text (same experiment). */
bool operator==(const ScenarioSpec &a, const ScenarioSpec &b);
bool operator!=(const ScenarioSpec &a, const ScenarioSpec &b);

/**
 * Parse a spec from JSON.  Accepted shape (only "workload" is
 * mandatory; machine defaults to "longs", everything else to the
 * ExperimentConfig defaults):
 *
 *   {
 *     "workload": "nas-cg-b",
 *     "machine": "longs" | { ...inline MachineConfig... },
 *     "option": 1 | "localalloc"
 *              | {"label": ..., "scheme": ..., "policy": ...},
 *     "ranks": 8,
 *     "impl": "openmpi", "sublayer": "usysv",
 *     "latency_noise": 1.0
 *   }
 *
 * Returns nullopt and sets `error` on malformed input; unknown keys
 * are an error (a typoed "rank" must not silently run 1 rank).
 */
std::optional<ScenarioSpec> parseScenarioSpec(const JsonValue &doc,
                                              std::string *error);

/**
 * The one spelling of each MPI implementation and sub-layer, shared
 * by spec files, batch plans, the CLI flags and report labels.
 * Parsing is case-insensitive; nullopt for an unknown name.
 */
std::string mpiImplToken(MpiImpl impl);
std::optional<MpiImpl> parseMpiImplToken(const std::string &s);
std::string subLayerToken(SubLayer layer);
std::optional<SubLayer> parseSubLayerToken(const std::string &s);

/** Serialize / parse a NumactlOption object form. */
JsonValue numactlOptionToJson(const NumactlOption &option);
std::optional<NumactlOption> parseNumactlOption(const JsonValue &doc,
                                                std::string *error);

/**
 * Resolve a user-facing option spelling into a Table 5 entry: a
 * numeric index ("0".."5") or a case-insensitive label substring
 * ignoring spaces and '+' ("localalloc" matches "One MPI + Local
 * Alloc").  Shared by the CLI --option flag and batch spec files.
 */
std::optional<NumactlOption> resolveOptionSpec(const std::string &spec);

/**
 * FNV-1a fold of every calibrated constant and the model version --
 * the part of the digest shared by all specs.  Computed once per
 * process (calibration is immutable at runtime).
 */
uint64_t calibrationDigest();

} // namespace mcscope

#endif // MCSCOPE_CORE_SCENARIO_HH
