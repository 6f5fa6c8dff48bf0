#include "core/runner.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>

#include "util/logging.hh"

namespace mcscope {

std::string
digestHex(uint64_t digest)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    return buf;
}

std::optional<uint64_t>
parseDigestHex(std::string_view s)
{
    if (s.size() != 16)
        return std::nullopt;
    uint64_t v = 0;
    for (char c : s) {
        v <<= 4;
        if (c >= '0' && c <= '9')
            v |= static_cast<uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            v |= static_cast<uint64_t>(c - 'a' + 10);
        else
            return std::nullopt;
    }
    return v;
}

JsonValue
runResultToJson(uint64_t digest, const RunResult &result)
{
    JsonValue o = JsonValue::object();
    o.set("digest", JsonValue::str(digestHex(digest)));
    o.set("model_version", JsonValue::str(kScenarioModelVersion));
    o.set("valid", JsonValue::boolean(result.valid));
    o.set("seconds", JsonValue::number(result.seconds));
    std::vector<std::pair<std::string, JsonValue>> tagged;
    tagged.reserve(result.taggedSeconds.size());
    for (const auto &[tag, t] : result.taggedSeconds)
        tagged.emplace_back(std::to_string(tag), JsonValue::number(t));
    o.set("tagged", JsonValue::object(std::move(tagged)));
    o.set("events",
          JsonValue::number(static_cast<double>(result.events)));
    o.set("incremental_solves",
          JsonValue::number(
              static_cast<double>(result.incrementalSolves)));
    o.set("full_solves",
          JsonValue::number(static_cast<double>(result.fullSolves)));
    o.set("calqueue_ops",
          JsonValue::number(static_cast<double>(result.calqueueOps)));
    o.set("calqueue_resizes",
          JsonValue::number(
              static_cast<double>(result.calqueueResizes)));
    o.set("audited", JsonValue::boolean(result.audited));
    if (result.audited) {
        o.set("audit_digest",
              JsonValue::str(digestHex(result.auditDigest)));
        o.set("audit_checks",
              JsonValue::number(
                  static_cast<double>(result.auditChecks)));
    }
    return o;
}

std::optional<RunResult>
parseRunResult(const JsonValue &doc, uint64_t expect_digest)
{
    if (!doc.isObject())
        return std::nullopt;
    const JsonValue *digest = doc.find("digest");
    if (!digest || !digest->isString())
        return std::nullopt;
    // The content address is the integrity check: an entry claiming a
    // different digest than the one we asked for is stale or
    // misfiled, never trustworthy.
    std::optional<uint64_t> d = parseDigestHex(digest->asString());
    if (!d || *d != expect_digest)
        return std::nullopt;

    const JsonValue *valid = doc.find("valid");
    const JsonValue *seconds = doc.find("seconds");
    const JsonValue *tagged = doc.find("tagged");
    const JsonValue *events = doc.find("events");
    if (!valid || !valid->isBool() || !seconds ||
        !seconds->isNumber() || !tagged || !tagged->isObject() ||
        !events || !events->isNumber())
        return std::nullopt;

    RunResult r;
    r.valid = valid->asBool();
    r.seconds = seconds->asNumber();
    if (!std::isfinite(r.seconds) || r.seconds < 0.0)
        return std::nullopt;
    for (const auto &[key, v] : tagged->members()) {
        if (!v.isNumber() || key.empty())
            return std::nullopt;
        for (char c : key) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                return std::nullopt;
        }
        // Checked parse (PARSE-1): this key comes from journal/cache
        // files and worker records, any of which can be corrupt or
        // adversarial.  std::stoi would throw std::out_of_range on a
        // huge digit string straight through --resume; a corrupt
        // entry must instead read as "not a result" so the point is
        // re-simulated.
        errno = 0;
        char *end = nullptr;
        long tag = std::strtol(key.c_str(), &end, 10);
        if (errno == ERANGE || end != key.c_str() + key.size() ||
            tag > std::numeric_limits<int>::max())
            return std::nullopt;
        r.taggedSeconds[static_cast<int>(tag)] = v.asNumber();
    }
    if (std::optional<uint64_t> e = jsonInteger<uint64_t>(*events))
        r.events = *e;
    else
        return std::nullopt;

    // Engine-counter fields arrived after the cache/journal format
    // shipped; absent fields (old entries) default to zero.
    auto optionalCounter = [&doc](const char *key,
                                  uint64_t &out) -> bool {
        const JsonValue *v = doc.find(key);
        if (!v)
            return true;
        std::optional<uint64_t> n = jsonInteger<uint64_t>(*v);
        if (n)
            out = *n;
        return n.has_value();
    };
    if (!optionalCounter("incremental_solves", r.incrementalSolves) ||
        !optionalCounter("full_solves", r.fullSolves) ||
        !optionalCounter("calqueue_ops", r.calqueueOps) ||
        !optionalCounter("calqueue_resizes", r.calqueueResizes))
        return std::nullopt;

    if (const JsonValue *audited = doc.find("audited")) {
        if (!audited->isBool())
            return std::nullopt;
        r.audited = audited->asBool();
    }
    if (r.audited) {
        const JsonValue *ad = doc.find("audit_digest");
        const JsonValue *ac = doc.find("audit_checks");
        std::optional<uint64_t> checks =
            ac ? jsonInteger<uint64_t>(*ac) : std::nullopt;
        if (!ad || !ad->isString() || !checks)
            return std::nullopt;
        r.auditChecks = *checks;
        std::optional<uint64_t> adv = parseDigestHex(ad->asString());
        if (!adv)
            return std::nullopt;
        r.auditDigest = *adv;
    }
    return r;
}

ResultCache::ResultCache(std::string dir)
{
    MCSCOPE_ASSERT(!dir.empty(), "disk cache needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        fatal("cannot create cache directory '", dir,
              "': ", ec.message());
    }
    file_ = std::make_unique<SweepJournal>(dir + "/results.jsonl",
                                           SweepJournal::Sync::None);
}

ResultCache::ResultCache(std::unique_ptr<SweepJournal> file)
    : file_(std::move(file))
{
}

std::optional<ResultCache::Hit>
ResultCache::lookup(uint64_t digest)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(digest);
        if (it != entries_.end()) {
            ++stats_.memoryHits;
            return Hit{it->second, false};
        }
    }
    // The file lookup runs outside mu_: it must not serialize the
    // worker pool.
    bool corrupt = false;
    std::optional<RunResult> r =
        file_ ? file_->lookup(digest, &corrupt) : std::nullopt;
    std::lock_guard<std::mutex> lock(mu_);
    if (!r) {
        ++stats_.misses;
        if (corrupt)
            ++stats_.corrupt;
        return std::nullopt;
    }
    entries_.emplace(digest, *r);
    ++stats_.diskHits;
    return Hit{std::move(*r), true};
}

void
ResultCache::store(uint64_t digest, const RunResult &result)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_[digest] = result;
        ++stats_.stores;
    }
    if (file_)
        file_->append(digest, result);
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

std::string
envCacheDir()
{
    const char *dir = std::getenv("MCSCOPE_CACHE_DIR");
    return dir ? dir : "";
}

ResultCache &
processCache()
{
    // Leaked singleton: sweeps may run during static destruction of
    // test fixtures, so the cache must outlive everything.
    static ResultCache *cache = [] {
        const std::string dir = envCacheDir();
        if (!dir.empty())
            return new ResultCache(dir);
        return new ResultCache();
    }();
    return *cache;
}

} // namespace mcscope
