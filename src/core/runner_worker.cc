#include "core/runner.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <memory>

#include <unistd.h>

#include "core/registry.hh"
#include "core/runner_internal.hh"
#include "util/logging.hh"
#include "util/str.hh"
#include "util/transport.hh"

namespace mcscope {

std::optional<std::vector<FaultSpec>>
parseFaultPlan(const std::string &text, std::string *error)
{
    std::vector<FaultSpec> out;
    if (trim(text).empty())
        return out;
    for (const std::string &part : split(text, ',')) {
        std::string p = trim(part);
        size_t colon = p.find(':');
        if (colon == std::string::npos) {
            if (error)
                *error = "expected kind:point in '" + p + "'";
            return std::nullopt;
        }
        FaultSpec f;
        std::string kind = toLower(trim(p.substr(0, colon)));
        if (kind == "crash") {
            f.kind = FaultSpec::Kind::Crash;
        } else if (kind == "hang") {
            f.kind = FaultSpec::Kind::Hang;
        } else {
            if (error)
                *error = "unknown fault kind '" + kind +
                         "' (expected crash or hang)";
            return std::nullopt;
        }
        std::string idx = trim(p.substr(colon + 1));
        if (idx.empty() ||
            !std::all_of(idx.begin(), idx.end(), [](char c) {
                return std::isdigit(static_cast<unsigned char>(c));
            })) {
            if (error)
                *error = "bad fault point '" + idx + "'";
            return std::nullopt;
        }
        errno = 0;
        char *end = nullptr;
        unsigned long long v = std::strtoull(idx.c_str(), &end, 10);
        if (errno == ERANGE || end != idx.c_str() + idx.size()) {
            if (error)
                *error = "bad fault point '" + idx + "'";
            return std::nullopt;
        }
        f.point = v;
        out.push_back(f);
    }
    return out;
}

namespace {

/** Format stamp on shard manifests (supervisor -> worker). */
constexpr const char *kShardManifestFormat = "mcscope-shard-1";

} // namespace

std::string
encodeShardManifest(const SweepPlan &plan, const std::deque<size_t> &points,
                    const ShardOptions &opts)
{
    JsonValue doc = JsonValue::object();
    doc.set("format", JsonValue::str(kShardManifestFormat));
    doc.set("audit", JsonValue::boolean(opts.audit));
    if (!opts.cacheDir.empty())
        doc.set("cache_dir", JsonValue::str(opts.cacheDir));
    JsonValue pts = JsonValue::array();
    for (size_t i : points) {
        JsonValue p = JsonValue::object();
        p.set("index", JsonValue::number(static_cast<double>(i)));
        p.set("spec", plan.specs()[i].toJson());
        pts.append(std::move(p));
    }
    doc.set("points", std::move(pts));
    return doc.dump();
}

namespace {

/** One decoded shard-manifest point. */
struct ManifestPoint
{
    uint64_t index = 0;
    ScenarioSpec spec;
};

/** One decoded mcscope-shard-1 manifest. */
struct ShardManifest
{
    bool audit = false;
    std::string cacheDir;
    std::vector<ManifestPoint> points;
};

/** Decode a manifest document; nullopt + `error` on any defect. */
std::optional<ShardManifest>
parseShardManifest(const JsonValue &doc, std::string *error)
{
    if (!doc.isObject()) {
        *error = "manifest is not an object";
        return std::nullopt;
    }
    const JsonValue *fmt = doc.find("format");
    if (!fmt || !fmt->isString() ||
        fmt->asString() != kShardManifestFormat) {
        *error = std::string("manifest is not ") + kShardManifestFormat;
        return std::nullopt;
    }
    ShardManifest m;
    if (const JsonValue *a = doc.find("audit"); a && a->isBool())
        m.audit = a->asBool();
    if (const JsonValue *c = doc.find("cache_dir");
        c && c->isString())
        m.cacheDir = c->asString();
    const JsonValue *points = doc.find("points");
    if (!points || !points->isArray()) {
        *error = "manifest has no points array";
        return std::nullopt;
    }
    for (const JsonValue &p : points->items()) {
        const JsonValue *idx = p.find("index");
        const JsonValue *spec_doc = p.find("spec");
        std::optional<uint64_t> index =
            idx ? jsonInteger<uint64_t>(*idx) : std::nullopt;
        if (!index || !spec_doc) {
            *error = "malformed manifest point";
            return std::nullopt;
        }
        ManifestPoint pt;
        pt.index = *index;
        std::string spec_error;
        std::optional<ScenarioSpec> spec =
            parseScenarioSpec(*spec_doc, &spec_error);
        if (!spec) {
            *error = "bad spec for point " +
                     std::to_string(pt.index) + ": " + spec_error;
            return std::nullopt;
        }
        pt.spec = std::move(*spec);
        m.points.push_back(std::move(pt));
    }
    return m;
}

/**
 * Worker-process execution state shared across manifests: the fault
 * plan (parsed once) and the disk cache (recreated only when a
 * manifest names a different directory, so a long-lived framed worker
 * keeps its warm in-memory tier between manifests).
 */
class ShardWorkerContext
{
  public:
    bool loadFaults(std::string *error)
    {
        if (const char *env = std::getenv("MCSCOPE_FAULT_INJECT")) {
            std::optional<std::vector<FaultSpec>> parsed =
                parseFaultPlan(env, error);
            if (!parsed)
                return false;
            faults_ = *parsed;
        }
        return true;
    }

    void setCacheDir(const std::string &dir)
    {
        if (dir == cacheDir_)
            return;
        cacheDir_ = dir;
        cache_ = dir.empty() ? nullptr
                             : std::make_unique<ResultCache>(dir);
    }

    /**
     * Execute one point (fault hooks first, then resolvePoint()) and
     * build its record document, or an `audit_failure` document when
     * an audited hit disagreed with its fresh run; counts a point
     * served without simulating in `cache_hits`.  May not return at
     * all when a crash/hang fault matches -- that is the point.
     */
    JsonValue executePoint(const ManifestPoint &pt, bool audit,
                           uint64_t *cache_hits)
    {
        // Deterministic fault injection: die or stall exactly when
        // told to, *before* the point's record exists, so the
        // supervisor's recovery path sees a genuinely lost point.
        for (const FaultSpec &f : faults_) {
            if (f.point != pt.index)
                continue;
            if (f.kind == FaultSpec::Kind::Crash) {
                ::raise(SIGKILL);
            } else {
                for (;;)
                    ::sleep(3600); // until the watchdog kills us
            }
        }

        std::unique_ptr<Workload> workload =
            makeWorkload(pt.spec.workload);
        const uint64_t digest = pt.spec.digestWith(*workload);
        const Clock::time_point start = Clock::now();
        const ResolvedPoint point =
            resolvePoint(pt.spec, *workload, digest, cache_.get(), audit);
        if (point.source != PointSource::Simulated && !point.validated)
            ++*cache_hits;

        JsonValue rec = JsonValue::object();
        rec.set("index",
                JsonValue::number(static_cast<double>(pt.index)));
        if (!point.disagreement.empty()) {
            rec.set("audit_failure", JsonValue::str(point.disagreement));
            return rec;
        }
        rec.set("wall_seconds",
                JsonValue::number(secondsSince(start)));
        rec.set("result", runResultToJson(digest, point.result));
        return rec;
    }

  private:
    std::vector<FaultSpec> faults_;
    std::unique_ptr<ResultCache> cache_;
    std::string cacheDir_;
};

} // namespace

int
runFramedShardWorker(int in_fd, int out_fd)
{
    ignoreSigpipeOnce();
    std::string error;
    ShardWorkerContext ctx;
    if (!ctx.loadFaults(&error)) {
        warn("worker: bad MCSCOPE_FAULT_INJECT: ", error);
        return 2;
    }
    for (;;) {
        bool eof = false;
        std::optional<std::string> frame = readFrame(in_fd, &eof);
        if (!frame) {
            if (eof)
                return 0; // orderly shutdown at a frame boundary
            warn("worker: torn or malformed manifest stream");
            return 2;
        }
        std::optional<JsonValue> doc = parseJson(*frame, &error);
        std::optional<ShardManifest> manifest;
        if (doc)
            manifest = parseShardManifest(*doc, &error);
        if (!manifest) {
            warn("worker: malformed shard manifest: ", error);
            return 2;
        }
        ctx.setCacheDir(manifest->cacheDir);
        uint64_t cache_hits = 0;
        for (const ManifestPoint &pt : manifest->points) {
            if (!writeFrame(out_fd,
                            ctx.executePoint(pt, manifest->audit,
                                             &cache_hits)
                                .dump()))
                return 2; // supervisor hung up
        }
        JsonValue done = JsonValue::object();
        done.set("done", JsonValue::boolean(true));
        done.set("cache_hits",
                 JsonValue::number(static_cast<double>(cache_hits)));
        if (!writeFrame(out_fd, done.dump()))
            return 2;
    }
}

} // namespace mcscope
