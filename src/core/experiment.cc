#include "core/experiment.hh"

#include <memory>

#include "machine/machine.hh"
#include "sim/audit.hh"
#include "simmpi/comm.hh"
#include "util/logging.hh"

namespace mcscope {

SimTime
RunResult::tagged(int tag) const
{
    auto it = taggedSeconds.find(tag);
    return it == taggedSeconds.end() ? 0.0 : it->second;
}

RunResult
runExperiment(const ExperimentConfig &config, const Workload &workload)
{
    Machine machine(config.machine);
    return runExperimentOn(machine, config, workload);
}

RunResult
runExperimentOn(Machine &machine, const ExperimentConfig &config,
                const Workload &workload)
{
    RunResult res;

    auto placement = Placement::create(config.machine, machine.topology(),
                                       config.option, config.ranks);
    if (!placement)
        return res; // invalid combination: a "-" table cell

    MpiRuntime rt(machine, *placement, config.impl, config.sublayer);
    if (config.latencyNoise != 1.0)
        rt.setLatencyNoiseFactor(config.latencyNoise);

    workload.buildTasks(machine, rt);
    Engine &engine = machine.engine();
    if (config.audit && !engine.auditor())
        engine.setAuditor(std::make_unique<Auditor>());
    if (config.timelineBuckets > 0 && !engine.timelineEnabled())
        engine.enableUtilizationTimeline(config.timelineBuckets);
    MCSCOPE_ASSERT(engine.taskCount() == config.ranks,
                   "workload '", workload.name(), "' built ",
                   engine.taskCount(), " tasks for ", config.ranks,
                   " ranks");
    engine.run();

    res.valid = true;
    res.seconds = engine.makespan();
    for (int tag = 0; tag <= 8; ++tag) {
        SimTime t = engine.maxTaggedTime(tag);
        if (t > 0.0)
            res.taggedSeconds[tag] = t;
    }
    res.events = engine.eventCount();
    const Engine::Stats stats = engine.stats();
    res.incrementalSolves = stats.incrementalSolves;
    res.fullSolves = stats.fullSolves;
    res.memoHits = stats.memoHits;
    res.calqueueOps = stats.calqueueOps;
    res.calqueueResizes = stats.calqueueResizes;
    if (const Auditor *auditor = engine.auditor()) {
        res.audited = true;
        res.auditDigest = auditor->digest();
        res.auditChecks = auditor->allocationsChecked();
    }
    return res;
}

} // namespace mcscope
