/**
 * @file
 * Write-ahead journal for sweep execution (DESIGN.md §10).
 *
 * A batch sweep of hundreds of points must survive a killed worker, a
 * killed supervisor, or a power-cycled box without losing completed
 * work.  The journal is the persistence layer that makes that true:
 * the supervisor appends one record per *completed* point — the
 * spec's content digest plus its full RunResult — to a plain-text
 * JSON-lines file, fsync'd per record, and `--resume <journal>`
 * preloads those records so only the remainder is re-executed.
 *
 * Robustness rules, in order of importance:
 *
 *  - Records are content-addressed: a record is only ever matched to
 *    a spec through the same digest the result cache uses
 *    (core/scenario.hh), so a journal from a different plan, an older
 *    model version, or a stale calibration simply contributes nothing
 *    — it can never contribute a *wrong* number.
 *  - The reader is corrupt-tail tolerant: a torn final line (the
 *    supervisor died mid-append) is skipped with a warning, as is any
 *    malformed line; every well-formed record before and after still
 *    loads.
 *  - One journal, one supervisor: an exclusive lock file
 *    (`<journal>.lock`, containing the holder's pid) makes a second
 *    supervisor refuse to attach while the first is alive.  A lock
 *    whose pid is dead is stale and is silently replaced, so a
 *    SIGKILLed supervisor never wedges the next run.
 */

#ifndef MCSCOPE_CORE_JOURNAL_HH
#define MCSCOPE_CORE_JOURNAL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/experiment.hh"

namespace mcscope {

/** Format stamp on the journal's header line. */
constexpr const char *kJournalFormat = "mcscope-journal-1";

/**
 * The header line, '\n' included, that starts every journal and every
 * result store file (core/runner.hh).
 */
std::string journalHeaderLine();

/**
 * Append side of the journal.  Construction takes the lock and opens
 * the file for appending (writing the header line into an empty
 * file, and ending a torn final line so the next record starts on a
 * line of its own); destruction releases the lock.  fatal() when
 * another live process holds the lock.
 */
class SweepJournal
{
  public:
    explicit SweepJournal(std::string path);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * Durably append one completed point.  The record is written as a
     * single line and fsync'd before returning, so a supervisor
     * killed any time after append() returns cannot lose the point.
     */
    void append(uint64_t digest, const RunResult &result);

    const std::string &path() const { return path_; }

    /** Records appended through this handle (not preexisting ones). */
    uint64_t appended() const { return appended_; }

  private:
    std::string path_;
    std::string lock_path_;
    int fd_ = -1;
    int lock_fd_ = -1;
    uint64_t appended_ = 0;
};

/** What loadJournal() found. */
struct JournalLoadStats
{
    uint64_t records = 0;  ///< well-formed records loaded
    uint64_t corrupt = 0;  ///< malformed lines skipped (torn tail included)
};

/**
 * Load a journal into a digest -> result map.  A missing file is an
 * empty map (resuming from nothing is a fresh run); malformed lines
 * are counted in `stats` and skipped.  Later records win on duplicate
 * digests (they are re-executions of the same point and must agree,
 * but the latest is the one the supervisor most recently vouched
 * for).
 *
 * The map is for .find() lookups during resume only; never iterate it
 * (hash order is implementation-defined, and this unit's output must
 * be byte-identical across runs -- lint rule DET-2).
 */
std::unordered_map<uint64_t, RunResult>
loadJournal(const std::string &path, JournalLoadStats *stats = nullptr);

/**
 * Parse one journal record line (exposed for tests).  Returns the
 * (digest, result) pair, or nullopt for headers and malformed lines.
 */
std::optional<std::pair<uint64_t, RunResult>>
parseJournalRecord(std::string_view line);

} // namespace mcscope

#endif // MCSCOPE_CORE_JOURNAL_HH
