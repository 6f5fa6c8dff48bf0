#include "core/cli.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <ios>
#include <limits>
#include <map>
#include <memory>

#include <unistd.h>

#include "core/analysis.hh"
#include "core/calibration.hh"
#include "core/parallel_for.hh"
#include "util/csv.hh"
#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/plan.hh"
#include "core/registry.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "core/scenario.hh"
#include "core/serve.hh"
#include "machine/config.hh"
#include "machine/machine.hh"
#include "machine/registry.hh"
#include "sim/trace_export.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/transport.hh"

namespace mcscope {

namespace {

const char *kUsage =
    "usage: mcscope <command> [args]\n"
    "  list [--json]                workloads, machines, options\n"
    "  zoo [--json]                 machine registry (builtins + any\n"
    "                               loaded definition directories)\n"
    "  calibration                  calibrated model constants\n"
    "  run <workload> [flags]       one experiment\n"
    "  sweep <workload> [flags]     numactl option x rank sweep\n"
    "  scaling <workload> [flags]   strong-scaling series\n"
    "  batch <spec.json> [flags]    execute a sweep-plan spec file\n"
    "  serve [flags]                sweep service daemon (TCP)\n"
    "  submit <spec.json> --connect HOST:PORT [--csv] [--cache-stats]\n"
    "                               run a spec on a serve daemon\n"
    "  worker --framed              shard worker on stdin/stdout\n"
    "                               (internal; spawned by batch/serve)\n"
    "  worker --connect HOST:PORT   join a serve daemon's worker pool\n"
    "flags: --machine M --ranks N[,N..] --option I|label\n"
    "       --machine-dir D  load machine definitions from D/*.json\n"
    "                into the registry before running any command\n"
    "                (also: MCSCOPE_MACHINE_DIR; repeatable)\n"
    "       --impl mpich2|lam|openmpi --sublayer sysv|usysv --detail\n"
    "       --coherence snoopy|directory|legacy-alpha\n"
    "                override the machine's coherence mode (default:\n"
    "                legacy-alpha scalar tax; see DESIGN.md §15)\n"
    "       --audit  run under the simulation invariant auditor\n"
    "                (run/batch; batch also validates cache hits)\n"
    "       --jobs N run sweep/scaling/batch grid points on N threads\n"
    "                (default: MCSCOPE_JOBS, else 1)\n"
    "       --cache-dir D    persist results under D and reuse them\n"
    "                        (default: MCSCOPE_CACHE_DIR, else memory)\n"
    "       --cache-stats    print hit/miss counters after the run\n"
    "       --trace-out FILE      Chrome trace_event JSON of the run\n"
    "       --timeline-out FILE   per-resource utilization CSV (run)\n"
    "       --timeline-buckets N  timeline resolution (default 64)\n"
    "       --telemetry-out FILE  sweep telemetry JSON\n"
    "batch fault tolerance (DESIGN.md §10):\n"
    "       --shards N       run the plan across N worker processes\n"
    "       --journal FILE   write-ahead journal of completed points\n"
    "       --resume FILE    skip points already in FILE, append new\n"
    "                        ones to it (unless --journal differs)\n"
    "       --point-timeout S  kill a worker stuck >S seconds on one\n"
    "                          point and retry it (default: off)\n"
    "       --max-retries N  attempts before a point becomes a gap\n"
    "                        (default 2)\n"
    "       --backoff S      base worker respawn delay, doubled per\n"
    "                        retry (default 0.05)\n"
    "serve flags (DESIGN.md §14):\n"
    "       --host H         bind address (default 127.0.0.1)\n"
    "       --port P         TCP port; 0 picks one (printed at start)\n"
    "       --shards N       local worker subprocesses (default 1;\n"
    "                        0 relies on connected workers only)\n"
    "       --max-batches N  exit after N submissions (default: run\n"
    "                        forever)\n"
    "       plus --journal --cache-dir --audit --point-timeout\n"
    "       --max-retries --backoff with batch semantics\n";

/**
 * Parse a digits-only string as a non-negative integer.  Returns -1
 * on empty input, a non-digit character, or a value that does not fit
 * in int — callers treat all three as the same user error, never as a
 * crash (std::stoi throws std::out_of_range on long digit strings).
 */
int
parseDigits(const std::string &s)
{
    if (s.empty())
        return -1;
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return -1;
    }
    errno = 0;
    char *end = nullptr;
    long v = std::strtol(s.c_str(), &end, 10);
    if (errno == ERANGE || end != s.c_str() + s.size() ||
        v > std::numeric_limits<int>::max())
        return -1;
    return static_cast<int>(v);
}

struct CliFlags
{
    std::string machine = "longs";
    std::vector<int> ranks;
    std::string option = "0";
    MpiImpl impl = MpiImpl::OpenMpi;
    SubLayer sublayer = SubLayer::USysV;
    /** --coherence override; unset when nullopt. */
    std::optional<CoherenceMode> coherence;
    bool detail = false;
    bool csv = false;
    bool audit = false;
    int jobs = defaultJobs();
    std::string traceOut;
    std::string timelineOut;
    int timelineBuckets = 0;
    std::string telemetryOut;
    std::string cacheDir;
    bool cacheStats = false;
    int shards = 0; // 0 = in-process runPlan path
    std::string journal;
    std::string resume;
    double pointTimeout = 0.0;
    int maxRetries = 2;
    double backoff = 0.05;
    std::string error;
};

/** Parse a non-negative decimal seconds value; NaN on bad input. */
double
parseSeconds(const std::string &s)
{
    if (s.empty())
        return std::numeric_limits<double>::quiet_NaN();
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (errno == ERANGE || end != s.c_str() + s.size() ||
        !std::isfinite(v) || v < 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return v;
}

CliFlags
parseFlags(const std::vector<std::string> &args, size_t start)
{
    CliFlags f;
    for (size_t i = start; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= args.size())
                return "";
            return args[++i];
        };
        if (a == "--machine") {
            f.machine = next();
        } else if (a == "--ranks") {
            f.ranks = parseRankList(next());
            if (f.ranks.empty()) {
                f.error = "bad --ranks list";
                return f;
            }
        } else if (a == "--option") {
            f.option = next();
        } else if (a == "--impl") {
            std::string v = toLower(next());
            if (v == "mpich2")
                f.impl = MpiImpl::Mpich2;
            else if (v == "lam")
                f.impl = MpiImpl::Lam;
            else if (v == "openmpi")
                f.impl = MpiImpl::OpenMpi;
            else {
                f.error = "unknown --impl '" + v + "'";
                return f;
            }
        } else if (a == "--sublayer") {
            std::string v = toLower(next());
            if (v == "sysv")
                f.sublayer = SubLayer::SysV;
            else if (v == "usysv")
                f.sublayer = SubLayer::USysV;
            else {
                f.error = "unknown --sublayer '" + v + "'";
                return f;
            }
        } else if (a == "--coherence") {
            std::string v = toLower(next());
            CoherenceMode mode;
            if (!parseCoherenceMode(v, &mode)) {
                f.error = "unknown --coherence '" + v +
                          "' (have: legacy-alpha, snoopy, directory)";
                return f;
            }
            f.coherence = mode;
        } else if (a == "--jobs") {
            std::string v = next();
            int jobs = parseDigits(v);
            if (jobs <= 0) {
                f.error = "bad --jobs value '" + v + "'";
                return f;
            }
            f.jobs = jobs;
        } else if (a == "--trace-out") {
            f.traceOut = next();
            if (f.traceOut.empty()) {
                f.error = "--trace-out needs a file name";
                return f;
            }
        } else if (a == "--timeline-out") {
            f.timelineOut = next();
            if (f.timelineOut.empty()) {
                f.error = "--timeline-out needs a file name";
                return f;
            }
        } else if (a == "--timeline-buckets") {
            std::string v = next();
            f.timelineBuckets = parseDigits(v);
            if (f.timelineBuckets <= 0) {
                f.error = "bad --timeline-buckets value '" + v + "'";
                return f;
            }
        } else if (a == "--telemetry-out") {
            f.telemetryOut = next();
            if (f.telemetryOut.empty()) {
                f.error = "--telemetry-out needs a file name";
                return f;
            }
        } else if (a == "--cache-dir") {
            f.cacheDir = next();
            if (f.cacheDir.empty()) {
                f.error = "--cache-dir needs a directory";
                return f;
            }
        } else if (a == "--cache-stats") {
            f.cacheStats = true;
        } else if (a == "--shards") {
            std::string v = next();
            f.shards = parseDigits(v);
            if (f.shards <= 0) {
                f.error = "bad --shards value '" + v + "'";
                return f;
            }
        } else if (a == "--journal") {
            f.journal = next();
            if (f.journal.empty()) {
                f.error = "--journal needs a file name";
                return f;
            }
        } else if (a == "--resume") {
            f.resume = next();
            if (f.resume.empty()) {
                f.error = "--resume needs a journal file";
                return f;
            }
        } else if (a == "--point-timeout") {
            std::string v = next();
            f.pointTimeout = parseSeconds(v);
            if (std::isnan(f.pointTimeout) || f.pointTimeout <= 0.0) {
                f.error = "bad --point-timeout value '" + v + "'";
                return f;
            }
        } else if (a == "--max-retries") {
            std::string v = next();
            f.maxRetries = parseDigits(v);
            if (f.maxRetries < 0) {
                f.error = "bad --max-retries value '" + v + "'";
                return f;
            }
        } else if (a == "--backoff") {
            std::string v = next();
            f.backoff = parseSeconds(v);
            if (std::isnan(f.backoff)) {
                f.error = "bad --backoff value '" + v + "'";
                return f;
            }
        } else if (a == "--detail") {
            f.detail = true;
        } else if (a == "--audit") {
            f.audit = true;
        } else if (a == "--csv") {
            f.csv = true;
        } else {
            f.error = "unknown flag '" + a + "'";
            return f;
        }
    }
    return f;
}

/** Resolve --option into a Table 5 entry; nullopt on failure. */
std::optional<NumactlOption>
resolveOption(const std::string &spec)
{
    // Shared with batch spec files: core/scenario.hh.
    return resolveOptionSpec(spec);
}

/**
 * Open the cache the flags ask for: an owned on-disk cache for
 * --cache-dir, otherwise nullptr (the runner then uses processCache,
 * which itself honors MCSCOPE_CACHE_DIR).
 */
std::unique_ptr<ResultCache>
openFlagCache(const CliFlags &f)
{
    if (f.cacheDir.empty())
        return nullptr;
    return std::make_unique<ResultCache>(f.cacheDir);
}

/**
 * Audit summary for `mcscope run --audit`: re-run the experiment and
 * check the two audited event digests match (the determinism
 * invariant), then report the audit statistics.
 */
void
printAuditSummary(std::ostream &out, const ExperimentConfig &cfg,
                  const Workload &workload, const RunResult &first)
{
    RunResult replay = runExperiment(cfg, workload);
    MCSCOPE_ASSERT(replay.audited && first.audited,
                   "audited run lost its auditor");
    MCSCOPE_ASSERT(replay.auditDigest == first.auditDigest,
                   "non-deterministic simulation: digest ",
                   first.auditDigest, " vs replay digest ",
                   replay.auditDigest, " for workload '", workload.name(),
                   "'");
    out << "audit: ok (" << first.auditChecks
        << " allocations checked, digest " << std::hex
        << first.auditDigest << std::dec << ", replay identical)\n";
}

/** One registry machine as a `list`/`zoo` JSON entry. */
JsonValue
machineJson(const std::string &name)
{
    const MachineConfig *c = MachineRegistry::instance().find(name);
    MCSCOPE_ASSERT(c != nullptr, "registry listed unknown machine '",
                   name, "'");
    JsonValue machine = JsonValue::object();
    machine.set("name", JsonValue::str(toLower(name)));
    machine.set("builtin",
                JsonValue::boolean(
                    MachineRegistry::instance().isBuiltin(name)));
    machine.set("sockets", JsonValue::number(c->sockets));
    machine.set("cores_per_socket",
                JsonValue::number(c->coresPerSocket));
    machine.set("threads_per_core",
                JsonValue::number(c->threadsPerCore));
    machine.set("nodes", JsonValue::number(c->nodes));
    machine.set("total_cores", JsonValue::number(c->totalCores()));
    machine.set("opteron_model", JsonValue::str(c->opteronModel));
    return machine;
}

/** Machine-readable `list --json` document (registry-sourced). */
JsonValue
listJson()
{
    JsonValue doc = JsonValue::object();
    JsonValue workloads = JsonValue::array();
    for (const std::string &w : registeredWorkloads())
        workloads.append(JsonValue::str(w));
    doc.set("workloads", std::move(workloads));
    JsonValue machines = JsonValue::array();
    for (const std::string &m : MachineRegistry::instance().names())
        machines.append(machineJson(m));
    doc.set("machines", std::move(machines));
    JsonValue options = JsonValue::array();
    auto table5 = table5Options();
    for (size_t i = 0; i < table5.size(); ++i) {
        JsonValue option = JsonValue::object();
        option.set("index", JsonValue::number(static_cast<double>(i)));
        option.set("label", JsonValue::str(table5[i].label));
        option.set("scheme",
                   JsonValue::str(taskSchemeName(table5[i].scheme)));
        option.set("policy",
                   JsonValue::str(memPolicyName(table5[i].policy)));
        options.append(std::move(option));
    }
    doc.set("options", std::move(options));
    return doc;
}

int
cmdList(const std::vector<std::string> &args, std::ostream &out)
{
    if (args.size() > 1 && args[1] == "--json") {
        out << listJson().dump(2) << "\n";
        return 0;
    }
    if (args.size() > 1) {
        out << "list: unknown flag '" << args[1] << "'\n" << kUsage;
        return 2;
    }
    out << "workloads:\n";
    for (const std::string &w : registeredWorkloads())
        out << "  " << w << "\n";
    out << "machines:\n";
    for (const std::string &m : MachineRegistry::instance().names()) {
        const MachineConfig *c = MachineRegistry::instance().find(m);
        out << "  " << toLower(m) << " (" << c->sockets
            << " sockets x " << c->coresPerSocket << " cores";
        if (c->threadsPerCore > 1)
            out << " x " << c->threadsPerCore << " threads";
        if (c->nodes > 1)
            out << ", " << c->nodes << " nodes";
        if (!c->opteronModel.empty())
            out << ", Opteron " << c->opteronModel;
        out << ")\n";
    }
    out << "options:\n";
    auto options = table5Options();
    for (size_t i = 0; i < options.size(); ++i)
        out << "  " << i << ": " << options[i].label << "\n";
    return 0;
}

/**
 * Registry inventory: every machine the process can simulate, with
 * enough topology detail to tell a zoo definition took.  Validation is
 * implicit -- a malformed definition directory already failed to load
 * (exit 2 from --machine-dir, fatal from MCSCOPE_MACHINE_DIR).
 */
int
cmdZoo(const std::vector<std::string> &args, std::ostream &out)
{
    if (args.size() > 1 && args[1] != "--json") {
        out << "zoo: unknown flag '" << args[1] << "'\n" << kUsage;
        return 2;
    }
    MachineRegistry &reg = MachineRegistry::instance();
    if (args.size() > 1) {
        JsonValue doc = JsonValue::object();
        JsonValue machines = JsonValue::array();
        for (const std::string &m : reg.names())
            machines.append(machineJson(m));
        doc.set("machines", std::move(machines));
        out << doc.dump(2) << "\n";
        return 0;
    }
    out << "machine zoo: " << reg.names().size() << " machines ("
        << reg.builtinNames().size() << " builtin, "
        << reg.zooNames().size() << " from definition files)\n";
    for (const std::string &m : reg.names()) {
        const MachineConfig *c = reg.find(m);
        out << "  " << toLower(m) << ": " << c->sockets
            << " sockets x " << c->coresPerSocket << " cores";
        if (c->threadsPerCore > 1)
            out << " x " << c->threadsPerCore << " threads";
        out << " @ " << formatFixed(c->coreGHz, 2) << " GHz";
        if (c->nodes > 1) {
            out << ", " << c->nodes
                << " nodes on a shared fabric switch";
        }
        out << " [" << (reg.isBuiltin(m) ? "builtin" : "zoo")
            << "]\n";
    }
    return 0;
}

/**
 * Resolve a --machine name through the registry.  Prints a
 * nearest-name suggestion and returns nullopt on unknown names.
 */
std::optional<MachineConfig>
resolveMachineFlag(const std::string &name, const char *cmd,
                   std::ostream &out)
{
    const MachineConfig *cfg =
        MachineRegistry::instance().find(toLower(name));
    if (cfg)
        return *cfg;
    std::string hint = MachineRegistry::instance().suggest(name);
    out << cmd << ": unknown --machine '" << name << "'";
    if (!hint.empty())
        out << " (did you mean '" << toLower(hint) << "'?)";
    out << "\n";
    return std::nullopt;
}

/**
 * Apply a --coherence override to a resolved machine.  Returns true
 * when an override was given, i.e. the machine may no longer match
 * its preset and callers must treat it as an inline config.
 */
bool
applyCoherence(const CliFlags &f, MachineConfig *machine)
{
    if (!f.coherence)
        return false;
    machine->coherence.mode = *f.coherence;
    return true;
}

int
cmdRun(const std::vector<std::string> &args, std::ostream &out)
{
    if (args.size() < 2) {
        out << "run: missing workload\n" << kUsage;
        return 2;
    }
    if (!knownWorkload(args[1])) {
        out << "run: " << unknownWorkloadMessage(args[1]) << "\n";
        return 2;
    }
    CliFlags f = parseFlags(args, 2);
    if (!f.error.empty()) {
        out << "run: " << f.error << "\n";
        return 2;
    }
    auto option = resolveOption(f.option);
    if (!option) {
        out << "run: unknown --option '" << f.option << "'\n";
        return 2;
    }
    auto resolved = resolveMachineFlag(f.machine, "run", out);
    if (!resolved)
        return 2;
    MachineConfig machine = *resolved;
    applyCoherence(f, &machine);
    int ranks = f.ranks.empty() ? machine.totalCores() : f.ranks[0];

    auto workload = makeWorkload(args[1]);
    ExperimentConfig cfg;
    cfg.machine = machine;
    cfg.option = *option;
    cfg.ranks = ranks;
    cfg.impl = f.impl;
    cfg.sublayer = f.sublayer;
    cfg.audit = f.audit;
    // --timeline-out implies sampling; --timeline-buckets alone also
    // turns it on (the table shows under --detail).
    if (f.timelineBuckets > 0)
        cfg.timelineBuckets = f.timelineBuckets;
    else if (!f.timelineOut.empty())
        cfg.timelineBuckets = 64;

    // Observers must be on the engine before the run, so own the
    // Machine here instead of letting runExperiment build one.
    Machine sim(cfg.machine);
    std::ofstream trace_file;
    std::unique_ptr<ChromeTraceWriter> tracer;
    if (!f.traceOut.empty()) {
        trace_file.open(f.traceOut,
                        std::ios::out | std::ios::trunc);
        if (!trace_file) {
            out << "run: cannot open '" << f.traceOut
                << "' for writing\n";
            return 2;
        }
        tracer = std::make_unique<ChromeTraceWriter>(trace_file);
        tracer->attach(sim.engine());
    }

    DetailedResult res = runExperimentDetailedOn(sim, cfg, *workload);
    if (tracer)
        tracer->finish();
    if (!res.run.valid) {
        out << "infeasible: '" << option->label << "' cannot host "
            << ranks << " ranks on " << machine.name << "\n";
        return 1;
    }

    if (f.detail) {
        out << workload->name() << " on " << machine.name << ", "
            << ranks << " ranks, '" << option->label << "':\n";
        out << bottleneckReport(res);
        out << timelineSection(res);
    } else {
        out << workload->name() << " on " << machine.name << ", "
            << ranks << " ranks, '" << option->label
            << "': " << formatFixed(res.run.seconds, 3) << " s\n";
    }
    if (tracer) {
        out << "trace: " << tracer->recordsWritten() << " records -> "
            << f.traceOut << "\n";
    }
    if (!f.timelineOut.empty()) {
        std::ofstream timeline_file(f.timelineOut,
                                    std::ios::out | std::ios::trunc);
        if (!timeline_file) {
            out << "run: cannot open '" << f.timelineOut
                << "' for writing\n";
            return 2;
        }
        writeTimelineCsv(timeline_file, res.timeline);
        out << "timeline: " << res.timeline.buckets() << " buckets -> "
            << f.timelineOut << "\n";
    }
    if (res.run.audited)
        printAuditSummary(out, cfg, *workload, res.run);
    return 0;
}

/**
 * Print the telemetry summary line and, when --telemetry-out was
 * given, dump the JSON.  Returns false on an unwritable file.
 */
bool
writeTelemetry(std::ostream &out, const char *cmd, const CliFlags &f,
               const SweepTelemetry &telemetry)
{
    out << "telemetry: " << telemetry.summary() << "\n";
    if (f.telemetryOut.empty())
        return true;
    std::ofstream json(f.telemetryOut, std::ios::out | std::ios::trunc);
    if (!json) {
        out << cmd << ": cannot open '" << f.telemetryOut
            << "' for writing\n";
        return false;
    }
    telemetry.writeJson(json);
    out << "telemetry: wrote " << f.telemetryOut << "\n";
    return true;
}

int
cmdSweep(const std::vector<std::string> &args, std::ostream &out)
{
    if (args.size() < 2) {
        out << "sweep: missing workload\n" << kUsage;
        return 2;
    }
    if (!knownWorkload(args[1])) {
        out << "sweep: " << unknownWorkloadMessage(args[1]) << "\n";
        return 2;
    }
    CliFlags f = parseFlags(args, 2);
    if (!f.error.empty()) {
        out << "sweep: " << f.error << "\n";
        return 2;
    }
    auto resolved = resolveMachineFlag(f.machine, "sweep", out);
    if (!resolved)
        return 2;
    MachineConfig machine = *resolved;
    std::vector<int> ranks = f.ranks;
    if (ranks.empty()) {
        for (int r = 2; r <= machine.totalCores(); r *= 2)
            ranks.push_back(r);
    }
    SweepAxes axes;
    axes.machinePreset = f.machine;
    axes.workloads = {canonicalWorkloadName(args[1])};
    axes.rankCounts = ranks;
    axes.impls = {f.impl};
    axes.sublayers = {f.sublayer};
    const bool inline_machine =
        applyCoherence(f, &machine) ||
        !MachineRegistry::instance().isBuiltin(f.machine);
    if (inline_machine) {
        axes.machinePreset.clear();
        axes.machine = machine;
    }
    SweepPlan plan = SweepPlan::expand(axes);
    SweepTelemetry telemetry;
    RunnerOptions opts;
    opts.jobs = f.jobs;
    opts.telemetry =
        (!f.telemetryOut.empty() || f.detail) ? &telemetry : nullptr;
    std::unique_ptr<ResultCache> disk_cache = openFlagCache(f);
    opts.cache = disk_cache.get();
    PlanResults results = runPlan(plan, opts);
    OptionSweepResult sweep = optionSweepSlice(plan, results, 0, 0, 0);
    if (opts.telemetry && !writeTelemetry(out, "sweep", f, telemetry))
        return 2;
    if (f.cacheStats)
        out << "cache: " << results.stats.summary() << "\n";
    if (f.csv) {
        CsvWriter csv(out);
        std::vector<std::string> header = {"ranks"};
        for (const NumactlOption &o : sweep.options)
            header.push_back(o.label);
        csv.writeRow(header);
        for (size_t i = 0; i < ranks.size(); ++i) {
            std::vector<std::string> row = {
                std::to_string(ranks[i])};
            for (double v : sweep.seconds[i])
                row.push_back(std::isnan(v) ? "" : formatFixed(v, 6));
            csv.writeRow(row);
        }
        return 0;
    }
    TextTable t(optionSweepHeader("Workload"));
    appendOptionSweepRows(t, sweep, args[1]);
    t.print(out);
    for (size_t i = 0; i < ranks.size(); ++i) {
        out << "placement gain at " << ranks[i] << " ranks: "
            << formatFixed(placementGain(sweep.seconds[i]) * 100.0, 1)
            << "%\n";
    }
    return 0;
}

int
cmdScaling(const std::vector<std::string> &args, std::ostream &out)
{
    if (args.size() < 2) {
        out << "scaling: missing workload\n" << kUsage;
        return 2;
    }
    if (!knownWorkload(args[1])) {
        out << "scaling: " << unknownWorkloadMessage(args[1]) << "\n";
        return 2;
    }
    CliFlags f = parseFlags(args, 2);
    if (!f.error.empty()) {
        out << "scaling: " << f.error << "\n";
        return 2;
    }
    auto resolved = resolveMachineFlag(f.machine, "scaling", out);
    if (!resolved)
        return 2;
    MachineConfig machine = *resolved;
    std::vector<int> ranks = f.ranks;
    if (ranks.empty()) {
        ranks.push_back(1);
        for (int r = 2; r <= machine.totalCores(); r *= 2)
            ranks.push_back(r);
    }
    SweepAxes axes;
    axes.machinePreset = f.machine;
    axes.workloads = {canonicalWorkloadName(args[1])};
    axes.rankCounts = ranks;
    axes.options = {table5Options().front()}; // Default
    const bool inline_machine =
        applyCoherence(f, &machine) ||
        !MachineRegistry::instance().isBuiltin(f.machine);
    if (inline_machine) {
        axes.machinePreset.clear();
        axes.machine = machine;
    }
    SweepPlan plan = SweepPlan::expand(axes);
    SweepTelemetry telemetry;
    RunnerOptions opts;
    opts.jobs = f.jobs;
    opts.telemetry =
        (!f.telemetryOut.empty() || f.detail) ? &telemetry : nullptr;
    std::unique_ptr<ResultCache> disk_cache = openFlagCache(f);
    opts.cache = disk_cache.get();
    PlanResults results = runPlan(plan, opts);
    std::vector<double> t(ranks.size(), 0.0);
    for (size_t i = 0; i < ranks.size(); ++i) {
        const RunResult &r =
            results.at(plan, plan.pointIndex(0, 0, 0, i, 0));
        MCSCOPE_ASSERT(r.valid, "default placement rejected ",
                       ranks[i], " ranks on ", machine.name);
        t[i] = r.seconds;
    }
    // Scaling telemetry keeps its historical "default" label.
    for (GridPointSample &sample : telemetry.points)
        sample.label = "default";
    if (opts.telemetry && !writeTelemetry(out, "scaling", f, telemetry))
        return 2;
    if (f.cacheStats)
        out << "cache: " << results.stats.summary() << "\n";
    std::vector<double> s = speedups(t);
    TextTable table({"ranks", "seconds", "speedup", "efficiency"});
    for (size_t i = 0; i < ranks.size(); ++i) {
        table.addRow({std::to_string(ranks[i]), cell(t[i], 3),
                      cell(s[i], 2),
                      cell(s[i] / (static_cast<double>(ranks[i]) /
                                   ranks[0]),
                           2)});
    }
    table.print(out);
    return 0;
}

int
cmdBatch(const std::vector<std::string> &args, std::ostream &out)
{
    if (args.size() < 2) {
        out << "batch: missing spec file\n" << kUsage;
        return 2;
    }
    CliFlags f = parseFlags(args, 2);
    if (!f.error.empty()) {
        out << "batch: " << f.error << "\n";
        return 2;
    }
    std::ifstream in(args[1]);
    if (!in) {
        out << "batch: cannot read '" << args[1] << "'\n";
        return 2;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    std::optional<JsonValue> doc = parseJson(text, &error);
    if (!doc) {
        out << "batch: " << args[1] << ": " << error << "\n";
        return 2;
    }
    std::optional<SweepPlan> plan = SweepPlan::fromJson(*doc, &error);
    if (!plan) {
        out << "batch: " << args[1] << ": " << error << "\n";
        return 2;
    }
    if (f.coherence) {
        // Re-expand the spec's axes with the override folded into the
        // machine, so one spec file can drive legacy-alpha and modeled
        // runs (the CI coherence smoke relies on this).
        SweepAxes axes = plan->axes();
        MachineConfig machine = axes.resolvedMachine();
        applyCoherence(f, &machine);
        axes.machinePreset.clear();
        axes.machine = machine;
        plan = SweepPlan::expand(axes);
    }

    SweepTelemetry telemetry;
    SweepTelemetry *want_telemetry =
        (!f.telemetryOut.empty() || f.detail) ? &telemetry : nullptr;
    const bool sharded =
        f.shards > 0 || !f.journal.empty() || !f.resume.empty();
    PlanResults results;
    if (sharded) {
        ShardOptions sh;
        sh.shards = f.shards > 0 ? f.shards : 1;
        sh.pointTimeoutSeconds = f.pointTimeout;
        sh.maxRetries = f.maxRetries;
        sh.backoffSeconds = f.backoff;
        sh.audit = f.audit;
        sh.cacheDir = f.cacheDir;
        if (sh.cacheDir.empty()) {
            if (const char *env = std::getenv("MCSCOPE_CACHE_DIR"))
                sh.cacheDir = env;
        }
        sh.resumeFrom = f.resume;
        sh.journalPath = !f.journal.empty() ? f.journal : f.resume;
        if (!sh.journalPath.empty() && sh.journalPath != f.resume) {
            // A run must not silently append behind records it is not
            // resuming from; continuing an existing journal is what
            // --resume <journal> is for.
            std::ifstream probe(sh.journalPath);
            if (probe && probe.peek() != EOF) {
                out << "batch: journal '" << sh.journalPath
                    << "' already exists; use --resume to continue "
                       "it or remove it first\n";
                return 2;
            }
        }
        results = runPlanSharded(*plan, sh, want_telemetry);
    } else {
        RunnerOptions opts;
        opts.jobs = f.jobs;
        opts.audit = f.audit;
        opts.telemetry = want_telemetry;
        std::unique_ptr<ResultCache> disk_cache = openFlagCache(f);
        opts.cache = disk_cache.get();
        results = runPlan(*plan, opts);
    }
    if (want_telemetry && !writeTelemetry(out, "batch", f, telemetry))
        return 2;

    renderBatchResults(*plan, results, f.csv, out);
    if (f.cacheStats) {
        if (sharded)
            out << "journal: " << results.shard.summary() << "\n";
        else
            out << "cache: " << results.stats.summary() << "\n";
    }
    return 0;
}

/**
 * Shard worker speaking the framed manifest/record protocol: on
 * stdin/stdout when spawned by the batch or serve supervisor
 * (--framed), or over TCP after attaching to a serve daemon
 * (--connect).
 */
int
cmdWorker(const std::vector<std::string> &args, std::ostream &out)
{
    if (args.size() == 2 && args[1] == "--framed")
        return runFramedShardWorker(STDIN_FILENO, STDOUT_FILENO);
    if (args.size() == 3 && args[1] == "--connect") {
        std::string host;
        int port = 0;
        if (!splitHostPort(args[2], &host, &port)) {
            out << "worker: bad --connect address '" << args[2]
                << "' (want HOST:PORT)\n";
            return 2;
        }
        return runConnectedWorker(host, port);
    }
    out << "worker: expected --framed or --connect HOST:PORT\n"
        << kUsage;
    return 2;
}

int
cmdServe(const std::vector<std::string> &args, std::ostream &out)
{
    ServeOptions o;
    for (size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= args.size())
                return "";
            return args[++i];
        };
        if (a == "--host") {
            o.host = next();
            if (o.host.empty()) {
                out << "serve: --host needs an address\n";
                return 2;
            }
        } else if (a == "--port") {
            std::string v = next();
            o.port = parseDigits(v);
            if (o.port < 0 || o.port > 65535) {
                out << "serve: bad --port value '" << v << "'\n";
                return 2;
            }
        } else if (a == "--shards") {
            std::string v = next();
            o.shards = parseDigits(v);
            if (o.shards < 0) {
                out << "serve: bad --shards value '" << v << "'\n";
                return 2;
            }
        } else if (a == "--max-batches") {
            std::string v = next();
            int n = parseDigits(v);
            if (n < 0) {
                out << "serve: bad --max-batches value '" << v
                    << "'\n";
                return 2;
            }
            o.maxBatches = static_cast<uint64_t>(n);
        } else if (a == "--journal") {
            o.journalPath = next();
            if (o.journalPath.empty()) {
                out << "serve: --journal needs a file name\n";
                return 2;
            }
        } else if (a == "--cache-dir") {
            o.cacheDir = next();
            if (o.cacheDir.empty()) {
                out << "serve: --cache-dir needs a directory\n";
                return 2;
            }
        } else if (a == "--audit") {
            o.audit = true;
        } else if (a == "--point-timeout") {
            std::string v = next();
            o.pointTimeoutSeconds = parseSeconds(v);
            if (std::isnan(o.pointTimeoutSeconds) ||
                o.pointTimeoutSeconds <= 0.0) {
                out << "serve: bad --point-timeout value '" << v
                    << "'\n";
                return 2;
            }
        } else if (a == "--max-retries") {
            std::string v = next();
            o.maxRetries = parseDigits(v);
            if (o.maxRetries < 0) {
                out << "serve: bad --max-retries value '" << v
                    << "'\n";
                return 2;
            }
        } else if (a == "--backoff") {
            std::string v = next();
            o.backoffSeconds = parseSeconds(v);
            if (std::isnan(o.backoffSeconds)) {
                out << "serve: bad --backoff value '" << v << "'\n";
                return 2;
            }
        } else {
            out << "serve: unknown flag '" << a << "'\n" << kUsage;
            return 2;
        }
    }
    if (o.cacheDir.empty()) {
        if (const char *env = std::getenv("MCSCOPE_CACHE_DIR"))
            o.cacheDir = env;
    }
    return runServe(o, out);
}

int
cmdSubmit(const std::vector<std::string> &args, std::ostream &out)
{
    if (args.size() < 2) {
        out << "submit: missing spec file\n" << kUsage;
        return 2;
    }
    SubmitOptions o;
    o.specPath = args[1];
    bool connected = false;
    for (size_t i = 2; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a == "--connect") {
            if (i + 1 >= args.size() ||
                !splitHostPort(args[++i], &o.host, &o.port)) {
                out << "submit: bad --connect address (want "
                       "HOST:PORT)\n";
                return 2;
            }
            connected = true;
        } else if (a == "--csv") {
            o.csv = true;
        } else if (a == "--cache-stats") {
            o.cacheStats = true;
        } else {
            out << "submit: unknown flag '" << a << "'\n" << kUsage;
            return 2;
        }
    }
    if (!connected) {
        out << "submit: missing --connect HOST:PORT\n" << kUsage;
        return 2;
    }
    return runSubmit(o, out);
}

} // namespace

std::vector<int>
parseRankList(const std::string &arg)
{
    std::vector<int> out;
    for (const std::string &part : split(arg, ',')) {
        std::string p = trim(part);
        // parseDigits handles the non-digit and does-not-fit-in-int
        // cases in one place; values like "99999999999999999999" are
        // all digits, so the old std::stoi path threw
        // std::out_of_range straight through main().
        int v = parseDigits(p);
        if (v <= 0)
            return {};
        out.push_back(v);
    }
    return out;
}

int
runCli(const std::vector<std::string> &args, std::ostream &out)
{
    // --machine-dir loads definitions before any command dispatch so
    // every subcommand (run, batch, zoo, serve, ...) sees the same
    // registry.  Repeatable; a malformed file is a user error, not a
    // crash.
    std::vector<std::string> rest;
    rest.reserve(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--machine-dir") {
            if (i + 1 >= args.size()) {
                out << "--machine-dir needs a directory\n";
                return 2;
            }
            std::string problem =
                MachineRegistry::instance().loadDirectory(args[++i]);
            if (!problem.empty()) {
                out << "--machine-dir: " << problem << "\n";
                return 2;
            }
            continue;
        }
        rest.push_back(args[i]);
    }
    if (rest.empty()) {
        out << kUsage;
        return 2;
    }
    const std::string &cmd = rest[0];
    const std::vector<std::string> &args2 = rest;
    if (cmd == "list")
        return cmdList(args2, out);
    if (cmd == "zoo")
        return cmdZoo(args2, out);
    if (cmd == "calibration") {
        out << calibrationReport();
        return 0;
    }
    if (cmd == "run")
        return cmdRun(args2, out);
    if (cmd == "sweep")
        return cmdSweep(args2, out);
    if (cmd == "scaling")
        return cmdScaling(args2, out);
    if (cmd == "batch")
        return cmdBatch(args2, out);
    if (cmd == "serve")
        return cmdServe(args2, out);
    if (cmd == "submit")
        return cmdSubmit(args2, out);
    if (cmd == "worker")
        return cmdWorker(args2, out);
    out << "unknown command '" << cmd << "'\n" << kUsage;
    return 2;
}

} // namespace mcscope
