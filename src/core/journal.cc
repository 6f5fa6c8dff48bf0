#include "core/journal.hh"

#include <cerrno>
#include <cstring>
#include <limits>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "core/runner.hh" // runResultToJson / parseRunResult / digest hex
#include "util/json.hh"
#include "util/logging.hh"

namespace mcscope {

namespace {

/** How every record line starts: runResultToJson() puts the digest first. */
constexpr std::string_view kRecordPrefix = "{\"digest\":\"";

/** The header line, '\n' included, that starts every record file. */
std::string
headerLine()
{
    JsonValue header = JsonValue::object();
    header.set("format", JsonValue::str(kJournalFormat));
    header.set("model", JsonValue::str(kScenarioModelVersion));
    return header.dump() + "\n";
}

/** flock(LOCK_EX) on a descriptor, held for the object's lifetime. */
class FileLock
{
  public:
    explicit FileLock(int fd) : fd_(fd)
    {
        int rc;
        do {
            rc = ::flock(fd, LOCK_EX);
        } while (rc != 0 && errno == EINTR);
        held_ = rc == 0;
    }
    ~FileLock()
    {
        if (held_)
            ::flock(fd_, LOCK_UN);
    }
    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    bool held() const { return held_; }

  private:
    int fd_;
    bool held_ = false;
};

/** pread(2) exactly out.size() bytes at `offset`; false otherwise. */
bool
preadFull(int fd, std::string &out, uint64_t offset)
{
    ssize_t n;
    do {
        n = ::pread(fd, out.data(), out.size(),
                    static_cast<off_t>(offset));
    } while (n < 0 && errno == EINTR);
    return n == static_cast<ssize_t>(out.size());
}

} // namespace

SweepJournal::SweepJournal(std::string path, Sync sync)
    : path_(std::move(path)), sync_(sync)
{
    MCSCOPE_ASSERT(!path_.empty(), "record file needs a path");
    // O_CLOEXEC (FD-1): the descriptor stays open for the handle's
    // lifetime, and supervisors fork workers meanwhile.  A file we
    // may only read still serves lookups (a --resume source on
    // read-only media); appending to it fails like any failed write.
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC,
                 0644);
    if (fd_ < 0 && (errno == EACCES || errno == EROFS))
        fd_ = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd_ < 0) {
        fatal("cannot open record file '", path_,
              "': ", std::strerror(errno));
    }
    catchUp();
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

LineScan
SweepJournal::catchUp()
{
    // Only the digest a record line starts with is read here; the
    // record itself is parsed when a lookup hits it.  Other lines
    // (the header, a sealed torn tail) index nothing.
    const LineScan scan = scanLines(
        fd_, scanned_, [this](uint64_t offset, std::string_view line) {
            const size_t hex_end = kRecordPrefix.size() + 16;
            if (line.size() <= hex_end || line[hex_end] != '"' ||
                line.size() > std::numeric_limits<uint32_t>::max() ||
                line.substr(0, kRecordPrefix.size()) != kRecordPrefix)
                return;
            if (std::optional<uint64_t> d =
                    parseDigestHex(line.substr(kRecordPrefix.size(), 16)))
                index_[*d] = {offset, static_cast<uint32_t>(line.size())};
        });
    scanned_ = scan.end;
    return scan;
}

std::optional<RunResult>
SweepJournal::lookup(uint64_t digest, bool *corrupt)
{
    if (corrupt)
        *corrupt = false;
    Record rec;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto at = index_.find(digest);
        if (at == index_.end()) {
            // Another handle or process may have appended it since.
            catchUp();
            at = index_.find(digest);
        }
        if (at == index_.end())
            return std::nullopt;
        rec = at->second;
    }

    // Read and parse outside the lock: they must not serialize a
    // worker pool.  The record's own digest field is checked against
    // the one asked for, so a line can only ever serve its own spec.
    std::string bytes(rec.length, '\0');
    std::optional<RunResult> r;
    if (preadFull(fd_, bytes, rec.offset)) {
        if (std::optional<JsonValue> doc = parseJson(bytes))
            r = parseRunResult(*doc, digest);
    }
    if (!r) {
        warn("record ", digestHex(digest), " in ", path_,
             " is corrupt or stale; re-simulating");
        if (corrupt)
            *corrupt = true;
    }
    return r;
}

void
SweepJournal::appendFailed(const char *what)
{
    if (sync_ == Sync::PerAppend)
        fatal("cannot ", what, " journal '", path_,
              "': ", std::strerror(errno));
    warn("cannot ", what, " result store ", path_, ": ",
         std::strerror(errno));
}

void
SweepJournal::append(uint64_t digest, const RunResult &result)
{
    const std::string line = runResultToJson(digest, result).dump();

    // flock orders appends across handles and processes; mu_ orders
    // this handle's threads, which share one open file description
    // and so one flock.
    std::lock_guard<std::mutex> lock(mu_);
    const FileLock file_lock(fd_);
    if (!file_lock.held()) {
        appendFailed("lock");
        return;
    }
    const LineScan scan = catchUp();
    auto at = index_.find(digest);
    std::string have;
    if (at != index_.end() && at->second.length == line.size()) {
        have.resize(line.size());
        if (!preadFull(fd_, have, at->second.offset))
            have.clear();
    }
    if (have != line) {
        std::string out;
        if (scan.eof == 0)
            out = headerLine();
        else if (scan.eof > scan.end)
            out = "\n"; // seal a torn tail so it cannot swallow this line
        out += line;
        out += '\n';
        if (!writeAll(fd_, out)) {
            appendFailed("append to");
            return;
        }
        ++appended_;
        catchUp();
    }
    // Also when skipping: the record found may be another writer's,
    // not yet on disk.
    if (sync_ == Sync::PerAppend && ::fsync(fd_) != 0)
        appendFailed("fsync");
}

uint64_t
SweepJournal::appended() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return appended_;
}

namespace {

/** A parsed line as a record; nullopt for headers and bad records. */
std::optional<std::pair<uint64_t, RunResult>>
recordFromDoc(const JsonValue &doc)
{
    if (!doc.isObject() || doc.find("format"))
        return std::nullopt;
    const JsonValue *digest = doc.find("digest");
    if (!digest || !digest->isString())
        return std::nullopt;
    std::optional<uint64_t> d = parseDigestHex(digest->asString());
    if (!d)
        return std::nullopt;
    std::optional<RunResult> r = parseRunResult(doc, *d);
    if (!r)
        return std::nullopt;
    return std::make_pair(*d, *r);
}

} // namespace

std::optional<std::pair<uint64_t, RunResult>>
parseJournalRecord(std::string_view line)
{
    std::optional<JsonValue> doc = parseJson(line);
    if (!doc)
        return std::nullopt;
    return recordFromDoc(*doc);
}

std::unordered_map<uint64_t, RunResult>
loadJournal(const std::string &path, JournalLoadStats *stats)
{
    // Keyed by digest for O(1) lookups.  Callers only ever .find()
    // into this map: iterating it would feed implementation-defined
    // hash order into output, which mcscope-lint rule DET-2 forbids
    // in this unit.
    std::unordered_map<uint64_t, RunResult> out;
    JournalLoadStats local;
    // O_CLOEXEC (FD-1): a supervisor may fork workers meanwhile.
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd >= 0) {
        auto corrupt = [&](const char *what) {
            ++local.corrupt;
            warn("journal ", path, ": skipping ", what);
        };
        const LineScan scan =
            scanLines(fd, 0, [&](uint64_t, std::string_view line) {
                if (line.empty())
                    return;
                std::optional<JsonValue> doc = parseJson(line);
                if (doc && doc->isObject() && doc->find("format"))
                    return; // header
                std::optional<std::pair<uint64_t, RunResult>> rec =
                    doc ? recordFromDoc(*doc) : std::nullopt;
                if (!rec) {
                    corrupt("malformed record line");
                    return;
                }
                out[rec->first] = rec->second;
                ++local.records;
            });
        if (!scan.ok)
            warn("journal ", path, ": read failed: ", std::strerror(errno));
        if (scan.eof > scan.end)
            corrupt("torn final line");
        ::close(fd);
    }
    if (stats)
        *stats = local;
    return out;
}

} // namespace mcscope
