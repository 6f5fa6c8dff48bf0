#include "core/journal.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/runner.hh" // runResultToJson / parseRunResult / digest hex
#include "util/fdio.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace mcscope {

namespace {

/** True when `pid` names a live process we could signal. */
bool
pidAlive(long pid)
{
    if (pid <= 0)
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return true;
    return errno == EPERM; // alive, owned by someone else
}

/** The pid recorded in a lock file, or -1 when unreadable. */
long
lockHolder(const std::string &lock_path)
{
    std::string text;
    if (!readWholeFile(lock_path, text))
        return -1;
    errno = 0;
    char *end = nullptr;
    const long pid = std::strtol(text.c_str(), &end, 10);
    if (errno != 0 || end == text.c_str())
        return -1;
    return pid;
}

/** write(2) the whole buffer; fatal on error (journal loss = data loss). */
void
writeAllOrDie(int fd, std::string_view data, const std::string &path)
{
    if (!writeAll(fd, data)) {
        fatal("cannot append to journal '", path,
              "': ", std::strerror(errno));
    }
}

} // namespace

SweepJournal::SweepJournal(std::string path)
    : path_(std::move(path)), lock_path_(path_ + ".lock")
{
    MCSCOPE_ASSERT(!path_.empty(), "journal needs a path");

    // Take the lock: O_EXCL creation is the atomic claim.  One retry
    // after clearing a stale (dead-pid) lock; losing the race twice
    // means a live contender either way.
    for (int attempt = 0; attempt < 2; ++attempt) {
        lock_fd_ = ::open(lock_path_.c_str(),
                          O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC,
                          0644);
        if (lock_fd_ >= 0)
            break;
        if (errno != EEXIST) {
            fatal("cannot create journal lock '", lock_path_,
                  "': ", std::strerror(errno));
        }
        long holder = lockHolder(lock_path_);
        if (pidAlive(holder)) {
            // pidAlive treats EPERM as alive, so a recycled pid owned
            // by another user also lands here; tell the user how to
            // recover from that by hand.
            fatal("journal '", path_,
                  "' is locked by a live supervisor (pid ", holder,
                  "); refusing to attach.  If pid ", holder,
                  " is not an mcscope supervisor, remove '",
                  lock_path_, "' and retry");
        }
        warn("removing stale journal lock ", lock_path_, " (pid ",
             holder, " is gone)");
        ::unlink(lock_path_.c_str());
    }
    if (lock_fd_ < 0) {
        fatal("journal '", path_, "' is locked (", lock_path_,
              "); refusing to attach");
    }
    std::string pid_line =
        std::to_string(static_cast<long>(::getpid())) + "\n";
    writeAllOrDie(lock_fd_, pid_line, lock_path_);

    // Read access too: the tail check below reads the last byte.
    fd_ = ::open(path_.c_str(),
                 O_CREAT | O_RDWR | O_APPEND | O_CLOEXEC, 0644);
    struct stat st;
    if (fd_ < 0 || ::fstat(fd_, &st) != 0) {
        int saved = errno;
        ::close(lock_fd_);
        ::unlink(lock_path_.c_str());
        fatal("cannot open journal '", path_,
              "': ", std::strerror(saved));
    }
    char last = '\n';
    if (st.st_size > 0 && ::pread(fd_, &last, 1, st.st_size - 1) != 1)
        fatal("cannot read journal '", path_, "': ", std::strerror(errno));
    if (st.st_size == 0) {
        writeAllOrDie(fd_, journalHeaderLine(), path_);
        ::fsync(fd_);
    } else if (last != '\n') {
        // A torn tail from a killed supervisor: end it here, or the
        // first record appended below would be glued onto it and
        // lost with it.  The torn line still reads as corrupt.
        writeAllOrDie(fd_, "\n", path_);
        ::fsync(fd_);
    }
}

SweepJournal::~SweepJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
    if (lock_fd_ >= 0) {
        ::close(lock_fd_);
        ::unlink(lock_path_.c_str());
    }
}

void
SweepJournal::append(uint64_t digest, const RunResult &result)
{
    // One line per record, fsync'd: the write-ahead guarantee.  A
    // single write(2) of a short line is atomic enough in practice
    // (O_APPEND, one writer enforced by the lock); the reader
    // tolerates a torn tail regardless.
    writeAllOrDie(fd_, runResultToJson(digest, result).dump() + "\n",
                  path_);
    if (::fsync(fd_) != 0) {
        fatal("fsync failed on journal '", path_,
              "': ", std::strerror(errno));
    }
    ++appended_;
}

std::string
journalHeaderLine()
{
    JsonValue header = JsonValue::object();
    header.set("format", JsonValue::str(kJournalFormat));
    header.set("model", JsonValue::str(kScenarioModelVersion));
    return header.dump() + "\n";
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
    // Keyed by digest for O(1) resume lookups.  Callers only ever
    // .find() into this map: iterating it would feed
    // implementation-defined hash order into resume-path output,
    // which mcscope-lint rule DET-2 forbids in this unit.
    std::unordered_map<uint64_t, RunResult> out;
    JournalLoadStats local;
    // O_CLOEXEC (FD-1): the supervisor that calls this also forks
    // workers.
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
