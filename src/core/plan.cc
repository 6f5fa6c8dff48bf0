#include "core/plan.hh"

#include <map>

#include "core/registry.hh"
#include "machine/registry.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mcscope {

namespace {

bool
setError(std::string *err, const std::string &msg)
{
    if (err)
        *err = msg;
    return false;
}

/** Apply the documented defaults to unset axes. */
SweepAxes
withDefaults(SweepAxes axes)
{
    if (!axes.machinePreset.empty()) {
        axes.machinePreset = toLower(axes.machinePreset);
        axes.machine = configByName(axes.machinePreset);
    }
    if (axes.options.empty())
        axes.options = table5Options();
    if (axes.rankCounts.empty()) {
        // Up to the largest machine in the sweep; smaller machines
        // simply render "-" for the rank counts they cannot host.
        int max_cores = axes.machine.totalCores();
        if (!axes.machines.empty()) {
            max_cores = 0;
            for (const auto &[token, cfg] : axes.machines)
                max_cores = std::max(max_cores, cfg.totalCores());
        }
        for (int r = 2; r <= max_cores; r *= 2)
            axes.rankCounts.push_back(r);
        if (axes.rankCounts.empty())
            axes.rankCounts.push_back(1);
    }
    if (axes.impls.empty())
        axes.impls = {MpiImpl::OpenMpi};
    if (axes.sublayers.empty())
        axes.sublayers = {SubLayer::USysV};
    return axes;
}

/**
 * Grid points `full` (withDefaults() applied) expands to, or
 * kMaxPlanPoints + 1 for any count above the limit: computed from the
 * axis lengths alone, so it neither expands nor overflows.
 */
size_t
cappedPointCount(const SweepAxes &full)
{
    size_t points = 1;
    for (size_t axis :
         {full.machineVariants(), full.workloads.size(), full.impls.size(),
          full.sublayers.size(), full.rankCounts.size(),
          full.options.size()}) {
        if (axis > kMaxPlanPoints || points * axis > kMaxPlanPoints)
            return kMaxPlanPoints + 1;
        points *= axis;
    }
    return points;
}

} // namespace

MachineConfig
SweepAxes::resolvedMachine() const
{
    if (!machines.empty())
        return machines.front().second;
    if (!machinePreset.empty())
        return configByName(machinePreset);
    return machine;
}

MachineConfig
SweepAxes::variantMachine(size_t m) const
{
    MCSCOPE_ASSERT(m < machineVariants(), "machine variant ", m,
                   " out of range");
    if (!machines.empty())
        return machines[m].second;
    MachineConfig cfg = resolvedMachine();
    if (!directoryEntries.empty()) {
        cfg.coherence.mode = CoherenceMode::Directory;
        cfg.coherence.directoryEntries = directoryEntries[m];
    }
    return cfg;
}

std::string
SweepAxes::variantPreset(size_t m) const
{
    MCSCOPE_ASSERT(m < machineVariants(), "machine variant ", m,
                   " out of range");
    if (!machines.empty())
        return machines[m].first;
    return directoryEntries.empty() ? machinePreset : "";
}

size_t
SweepPlan::specIndex(size_t point) const
{
    MCSCOPE_ASSERT(point < pointSpec_.size(), "grid point ", point,
                   " out of range (", pointSpec_.size(), " points)");
    return pointSpec_[point];
}

const ScenarioSpec &
SweepPlan::pointSpec(size_t point) const
{
    return specs_[specIndex(point)];
}

size_t
SweepPlan::pointIndex(size_t w, size_t i, size_t s, size_t r,
                      size_t o, size_t m) const
{
    MCSCOPE_ASSERT(hasAxes_, "pointIndex needs an axes-based plan");
    const size_t I = axes_.impls.size();
    const size_t S = axes_.sublayers.size();
    const size_t R = axes_.rankCounts.size();
    const size_t O = axes_.options.size();
    MCSCOPE_ASSERT(w < axes_.workloads.size() && i < I && s < S &&
                       r < R && o < O && m < axes_.machineVariants(),
                   "grid coordinate out of range");
    return (((((m * axes_.workloads.size() + w) * I + i) * S + s) * R +
             r) * O + o);
}

uint64_t
SweepPlan::digest(size_t i, const Workload &workload) const
{
    MCSCOPE_ASSERT(i < specs_.size(), "spec ", i, " out of range (",
                   specs_.size(), " specs)");
    return finishScenarioDigest(textDigests_[i], workload);
}

std::vector<uint64_t>
SweepPlan::digests() const
{
    std::vector<uint64_t> out(specs_.size());
    for (size_t i = 0; i < specs_.size(); ++i)
        out[i] = digest(i, *makeWorkload(specs_[i].workload));
    return out;
}

void
SweepPlan::addPoint(ScenarioSpec spec, std::string text, Seen &seen)
{
    // Keyed by canonical text, not digest: exact, and independent of
    // workload instantiation.  The text digest is taken here, once
    // per unique spec; the text itself is dropped with the map.
    auto [it, inserted] = seen.emplace(std::move(text), specs_.size());
    if (inserted) {
        textDigests_.push_back(canonicalTextDigest(it->first));
        specs_.push_back(std::move(spec));
    }
    pointSpec_.push_back(it->second);
}

SweepPlan
SweepPlan::fromSpecs(const std::vector<ScenarioSpec> &specs)
{
    SweepPlan plan;
    Seen seen;
    for (const ScenarioSpec &raw : specs) {
        ScenarioSpec spec = raw;
        const std::string machine_json = spec.canonicalize();
        std::string text = spec.canonicalTextWith(machine_json);
        plan.addPoint(std::move(spec), std::move(text), seen);
    }
    return plan;
}

SweepPlan
SweepPlan::expand(const SweepAxes &axes)
{
    SweepAxes full = withDefaults(axes);
    MCSCOPE_ASSERT(!full.workloads.empty(),
                   "sweep axes need at least one workload");
    for (const std::string &workload : full.workloads) {
        if (!knownWorkload(workload))
            fatal(unknownWorkloadMessage(workload));
    }

    SweepPlan plan;
    Seen seen;
    const size_t points = full.machineVariants() * full.workloads.size() *
                          full.impls.size() * full.sublayers.size() *
                          full.rankCounts.size() * full.options.size();
    plan.pointSpec_.reserve(points);
    plan.specs_.reserve(points);
    plan.textDigests_.reserve(points);
    for (size_t m = 0; m < full.machineVariants(); ++m) {
        // Canonicalize each machine variant once: directory variants
        // and zoo machines are inline machines (variantPreset "" ->
        // one preset-collapse compare keeps them distinct and
        // distinctly digested); builtin machines keep their token.
        // Every spec on the variant reuses its machine text.
        ScenarioSpec base;
        base.machinePreset = full.variantPreset(m);
        base.machine = full.variantMachine(m);
        base.latencyNoise = full.latencyNoise;
        const std::string machine_json = base.canonicalize();
        for (const std::string &workload : full.workloads) {
            base.workload = canonicalWorkloadName(workload);
            for (MpiImpl impl : full.impls) {
                base.impl = impl;
                for (SubLayer sublayer : full.sublayers) {
                    base.sublayer = sublayer;
                    for (int ranks : full.rankCounts) {
                        base.ranks = ranks;
                        for (const NumactlOption &option :
                             full.options) {
                            base.option = option;
                            plan.addPoint(
                                base, base.canonicalTextWith(machine_json),
                                seen);
                        }
                    }
                }
            }
        }
    }
    plan.axes_ = std::move(full);
    plan.hasAxes_ = true;
    return plan;
}

std::optional<SweepPlan>
SweepPlan::fromJson(const JsonValue &doc, std::string *error)
{
    if (!doc.isObject()) {
        setError(error, "batch spec must be a JSON object");
        return std::nullopt;
    }
    SweepAxes axes;
    bool have_machine = false;
    // Resolve a machine *name* through the registry: builtin presets
    // keep their token (digest-preserving collapse), zoo machines
    // come back inline, unknown names get a nearest-name hint.
    auto resolveName = [&](const std::string &raw, std::string *token,
                           MachineConfig *cfg) {
        std::string name = toLower(raw);
        const MachineConfig *found =
            MachineRegistry::instance().find(name);
        if (!found) {
            std::string hint =
                MachineRegistry::instance().suggest(name);
            setError(error,
                     "unknown machine '" + raw + "'" +
                         (hint.empty() ? ""
                                       : " (did you mean '" +
                                             toLower(hint) + "'?)"));
            return false;
        }
        *token =
            MachineRegistry::instance().isBuiltin(name) ? name : "";
        *cfg = *found;
        return true;
    };
    for (const auto &[key, v] : doc.members()) {
        if (key == "machine") {
            have_machine = true;
            if (v.isString()) {
                std::string token;
                MachineConfig cfg;
                if (!resolveName(v.asString(), &token, &cfg))
                    return std::nullopt;
                axes.machinePreset = token;
                axes.machine = cfg;
            } else {
                auto m = parseMachineConfig(v, error);
                if (!m)
                    return std::nullopt;
                axes.machinePreset.clear();
                axes.machine = *m;
            }
        } else if (key == "machines") {
            if (!v.isArray() || v.items().empty()) {
                setError(error, "machines must be a non-empty array");
                return std::nullopt;
            }
            for (const JsonValue &entry : v.items()) {
                std::string token;
                MachineConfig cfg;
                if (entry.isString()) {
                    if (!resolveName(entry.asString(), &token, &cfg))
                        return std::nullopt;
                } else {
                    auto m = parseMachineConfig(entry, error);
                    if (!m)
                        return std::nullopt;
                    cfg = *m;
                }
                axes.machines.emplace_back(std::move(token),
                                           std::move(cfg));
            }
        } else if (key == "workloads") {
            if (!v.isArray() || v.items().empty()) {
                setError(error,
                         "workloads must be a non-empty array");
                return std::nullopt;
            }
            for (const JsonValue &w : v.items()) {
                if (!w.isString()) {
                    setError(error, "workloads entries must be strings");
                    return std::nullopt;
                }
                if (!knownWorkload(w.asString())) {
                    setError(error,
                             unknownWorkloadMessage(w.asString()));
                    return std::nullopt;
                }
                axes.workloads.push_back(
                    canonicalWorkloadName(w.asString()));
            }
        } else if (key == "ranks") {
            if (!v.isArray() || v.items().empty()) {
                setError(error, "ranks must be a non-empty array");
                return std::nullopt;
            }
            for (const JsonValue &r : v.items()) {
                std::optional<int> ranks = jsonInteger<int>(r);
                if (!ranks || *ranks < 1) {
                    setError(error,
                             "ranks entries must be positive numbers");
                    return std::nullopt;
                }
                axes.rankCounts.push_back(*ranks);
            }
        } else if (key == "options") {
            if (!v.isArray() || v.items().empty()) {
                setError(error, "options must be a non-empty array");
                return std::nullopt;
            }
            for (const JsonValue &o : v.items()) {
                std::optional<NumactlOption> option;
                if (o.isNumber()) {
                    if (std::optional<int> idx = jsonInteger<int>(o))
                        option = resolveOptionSpec(std::to_string(*idx));
                } else if (o.isString()) {
                    option = resolveOptionSpec(o.asString());
                } else {
                    option = parseNumactlOption(o, error);
                    if (!option)
                        return std::nullopt;
                }
                if (!option) {
                    setError(error, "unknown option '" + o.dump() +
                                        "'");
                    return std::nullopt;
                }
                axes.options.push_back(*option);
            }
        } else if (key == "impls") {
            if (!v.isArray() || v.items().empty()) {
                setError(error, "impls must be a non-empty array");
                return std::nullopt;
            }
            for (const JsonValue &entry : v.items()) {
                std::string token =
                    entry.isString() ? toLower(entry.asString()) : "";
                if (token == "mpich2")
                    axes.impls.push_back(MpiImpl::Mpich2);
                else if (token == "lam")
                    axes.impls.push_back(MpiImpl::Lam);
                else if (token == "openmpi")
                    axes.impls.push_back(MpiImpl::OpenMpi);
                else {
                    setError(error,
                             "unknown impl '" + entry.dump() +
                                 "' (have: mpich2, lam, openmpi)");
                    return std::nullopt;
                }
            }
        } else if (key == "sublayers") {
            if (!v.isArray() || v.items().empty()) {
                setError(error, "sublayers must be a non-empty array");
                return std::nullopt;
            }
            for (const JsonValue &entry : v.items()) {
                std::string token =
                    entry.isString() ? toLower(entry.asString()) : "";
                if (token == "sysv")
                    axes.sublayers.push_back(SubLayer::SysV);
                else if (token == "usysv")
                    axes.sublayers.push_back(SubLayer::USysV);
                else {
                    setError(error, "unknown sublayer '" + entry.dump() +
                                        "' (have: sysv, usysv)");
                    return std::nullopt;
                }
            }
        } else if (key == "directory_entries") {
            if (!v.isArray() || v.items().empty()) {
                setError(error,
                         "directory_entries must be a non-empty array");
                return std::nullopt;
            }
            for (const JsonValue &e : v.items()) {
                if (!e.isNumber() || e.asNumber() < 1.0) {
                    setError(error, "directory_entries entries must "
                                    "be numbers >= 1");
                    return std::nullopt;
                }
                axes.directoryEntries.push_back(e.asNumber());
            }
        } else if (key == "latency_noise") {
            if (!v.isNumber() || v.asNumber() <= 0.0) {
                setError(error,
                         "latency_noise must be a positive number");
                return std::nullopt;
            }
            axes.latencyNoise = v.asNumber();
        } else {
            setError(error, "unknown batch spec key '" + key + "'");
            return std::nullopt;
        }
    }
    if (axes.workloads.empty()) {
        setError(error, "batch spec needs a \"workloads\" array");
        return std::nullopt;
    }
    if (!axes.machines.empty() && have_machine) {
        setError(error,
                 "\"machine\" and \"machines\" are mutually exclusive");
        return std::nullopt;
    }
    if (!axes.machines.empty() && !axes.directoryEntries.empty()) {
        setError(error, "\"machines\" and \"directory_entries\" are "
                        "mutually exclusive (sweep one outermost axis "
                        "at a time)");
        return std::nullopt;
    }
    if (cappedPointCount(withDefaults(axes)) > kMaxPlanPoints) {
        setError(error, "batch spec names more than " +
                            std::to_string(kMaxPlanPoints) +
                            " grid points (the product of its axes); "
                            "split it into smaller batches");
        return std::nullopt;
    }
    return expand(axes);
}

} // namespace mcscope
