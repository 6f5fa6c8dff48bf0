#include "core/analysis.hh"

#include <algorithm>
#include <sstream>

#include "machine/machine.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/table.hh"

namespace mcscope {

double
DetailedResult::meanUtilization(ResourceKind kind) const
{
    const std::vector<ResourceReport> *bucket = nullptr;
    switch (kind) {
      case ResourceKind::Core:
        bucket = &cores;
        break;
      case ResourceKind::MemoryController:
        bucket = &controllers;
        break;
      case ResourceKind::HtLink:
        bucket = &links;
        break;
    }
    if (bucket->empty())
        return 0.0;
    double sum = 0.0;
    for (const ResourceReport &r : *bucket)
        sum += r.utilization;
    return sum / bucket->size();
}

const ResourceReport &
DetailedResult::hottest() const
{
    const ResourceReport *best = nullptr;
    for (const auto *bucket : {&cores, &controllers, &links}) {
        for (const ResourceReport &r : *bucket) {
            if (!best || r.utilization > best->utilization)
                best = &r;
        }
    }
    MCSCOPE_ASSERT(best != nullptr, "no resources in detailed result");
    return *best;
}

TimelineReport
gatherTimeline(const Engine &engine)
{
    TimelineReport out;
    if (!engine.timelineEnabled() || engine.timelineBucketCount() == 0)
        return out;
    out.bucketWidth = engine.timelineBucketWidth();
    const int buckets = engine.timelineBucketCount();
    for (ResourceId r = 0; r < engine.resourceCount(); ++r) {
        out.names.push_back(engine.resourceName(r));
        std::vector<double> series(buckets, 0.0);
        for (int b = 0; b < buckets; ++b)
            series[b] = engine.timelineBusyTime(r, b);
        out.busy.push_back(std::move(series));
    }
    return out;
}

void
writeTimelineCsv(std::ostream &os, const TimelineReport &timeline)
{
    CsvWriter csv(os);
    std::vector<std::string> header = {"bucket_start", "bucket_end"};
    header.insert(header.end(), timeline.names.begin(),
                  timeline.names.end());
    csv.writeRow(header);
    const int buckets = timeline.buckets();
    for (int b = 0; b < buckets; ++b) {
        std::vector<double> row;
        row.reserve(timeline.names.size() + 2);
        row.push_back(b * timeline.bucketWidth);
        row.push_back((b + 1) * timeline.bucketWidth);
        for (const std::vector<double> &series : timeline.busy)
            row.push_back(series[b] / timeline.bucketWidth);
        csv.writeNumericRow(row);
    }
}

DetailedResult
runExperimentDetailed(const ExperimentConfig &config,
                      const Workload &workload)
{
    Machine machine(config.machine);
    return runExperimentDetailedOn(machine, config, workload);
}

DetailedResult
runExperimentDetailedOn(Machine &machine, const ExperimentConfig &config,
                        const Workload &workload)
{
    DetailedResult out;
    out.run = runExperimentOn(machine, config, workload);
    if (!out.run.valid)
        return out;

    const Engine &engine = machine.engine();
    out.engineStats = engine.stats();
    out.timeline = gatherTimeline(engine);
    const int cores = machine.totalCores();
    const int sockets = config.machine.sockets;
    for (ResourceId r = 0; r < engine.resourceCount(); ++r) {
        ResourceReport rep;
        rep.name = engine.resourceName(r);
        rep.capacity = engine.resourceCapacity(r);
        rep.unitsMoved = engine.resourceUnitsMoved(r);
        rep.utilization = engine.resourceUtilization(r);
        rep.peakConcurrency = engine.resourcePeakConcurrency(r);
        if (r < cores)
            out.cores.push_back(std::move(rep));
        else if (r < cores + sockets)
            out.controllers.push_back(std::move(rep));
        else
            out.links.push_back(std::move(rep));
    }
    return out;
}

std::string
bottleneckReport(const DetailedResult &result)
{
    MCSCOPE_ASSERT(result.run.valid, "invalid run has no bottlenecks");
    std::ostringstream oss;
    oss << "makespan: " << formatFixed(result.run.seconds, 3) << " s, "
        << result.run.events << " events\n";
    const Engine::Stats &es = result.engineStats;
    oss << "engine: " << es.allocatorReruns << " allocator reruns ("
        << es.incrementalSolves << " incremental, " << es.fullSolves
        << " full, " << es.memoHits << " memo hits), " << es.timeSteps
        << " time steps, "
        << es.fallbackScans << " fallback scans, "
        << es.calqueueOps << " calqueue ops ("
        << es.calqueueResizes << " resizes), peak "
        << es.peakActiveFlows << " active flows\n";

    auto bucketLine = [&oss](const char *label,
                             const std::vector<ResourceReport> &bucket) {
        if (bucket.empty())
            return;
        double mean = 0.0;
        int peak = 0;
        const ResourceReport *hot = &bucket.front();
        for (const ResourceReport &r : bucket) {
            mean += r.utilization;
            if (r.utilization > hot->utilization)
                hot = &r;
            if (r.peakConcurrency > peak)
                peak = r.peakConcurrency;
        }
        mean /= bucket.size();
        oss << "  " << label << ": mean "
            << formatFixed(mean * 100.0, 1) << "%, hottest " << hot->name
            << " at " << formatFixed(hot->utilization * 100.0, 1)
            << "%, peak " << peak << " concurrent flows\n";
    };
    bucketLine("cores      ", result.cores);
    bucketLine("controllers", result.controllers);
    bucketLine("ht links   ", result.links);

    const ResourceReport &hot = result.hottest();
    oss << "bottleneck: " << hot.name << " ("
        << formatFixed(hot.utilization * 100.0, 1) << "% busy)\n";
    return oss.str();
}

std::string
timelineSection(const DetailedResult &result)
{
    const TimelineReport &tl = result.timeline;
    if (!tl.enabled())
        return "";
    // Resources appear in engine order: cores, then controllers, then
    // links (the same partition runExperimentDetailedOn used).
    const size_t ncores = result.cores.size();
    const size_t nctrl = result.controllers.size();
    auto meanUtil = [&tl](size_t lo, size_t hi, int b) {
        if (hi <= lo)
            return 0.0;
        double sum = 0.0;
        for (size_t r = lo; r < hi; ++r)
            sum += tl.busy[r][b];
        return sum / ((hi - lo) * tl.bucketWidth);
    };
    std::ostringstream oss;
    oss << "utilization timeline (" << tl.buckets() << " buckets of "
        << formatFixed(tl.bucketWidth, 6) << " s):\n";
    TextTable t({"t_start", "cores%", "controllers%", "links%"});
    for (int b = 0; b < tl.buckets(); ++b) {
        t.addRow({formatFixed(b * tl.bucketWidth, 4),
                  formatFixed(meanUtil(0, ncores, b) * 100.0, 1),
                  formatFixed(meanUtil(ncores, ncores + nctrl, b) * 100.0,
                              1),
                  formatFixed(meanUtil(ncores + nctrl, tl.names.size(),
                                       b) *
                                  100.0,
                              1)});
    }
    oss << t.str();
    return oss.str();
}

} // namespace mcscope
