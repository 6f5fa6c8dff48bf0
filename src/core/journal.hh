/**
 * @file
 * The record file: the one append-only store of finished points
 * (DESIGN.md §9, §10).
 *
 * Every finished point mcscope keeps -- in a sweep's write-ahead
 * journal (`--journal`, `--resume`, `mcscope serve --journal`) or in
 * a result cache directory (`--cache-dir`, `<dir>/results.jsonl`) --
 * is one line of a record file: a header line, then one compact
 * runResultToJson() record per line, the spec's content digest
 * first.  SweepJournal is the only code that writes such a file and
 * the only code that looks records up in it by digest.
 *
 * Robustness rules, in order of importance:
 *
 *  - Records are content-addressed: a record is only ever matched to
 *    a spec through the same digest the result cache uses
 *    (core/scenario.hh), and its own digest field must equal the one
 *    asked for, so a file from a different plan, an older model
 *    version, or a stale calibration contributes nothing -- never a
 *    *wrong* number.
 *  - The latest record for a digest is the one served.  When it is
 *    torn or corrupt the point reads as missing and is re-simulated,
 *    with a warning; an earlier record is never consulted.
 *  - Appends are ordered by flock(2) on the file itself, per append,
 *    so any number of handles, threads and processes may append to
 *    one file at once.  The kernel drops the lock with its holder, so
 *    a SIGKILLed writer leaves nothing to clean up; the torn line it
 *    may leave is sealed by the next append and reads as corrupt.
 */

#ifndef MCSCOPE_CORE_JOURNAL_HH
#define MCSCOPE_CORE_JOURNAL_HH

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/experiment.hh"
#include "util/fdio.hh"

namespace mcscope {

/** Format stamp on a record file's header line. */
constexpr const char *kJournalFormat = "mcscope-journal-1";

/**
 * One record file, open for lookups and appends.  Opening it indexes
 * each complete line by the digest it starts with, as an offset and a
 * length; records are neither parsed nor kept in memory until a
 * lookup hits them.  A lookup that misses the index first indexes
 * whatever other handles or processes appended since the last scan.
 * Thread-safe.
 */
class SweepJournal
{
  public:
    /** How hard append() works to keep a record across a crash. */
    enum class Sync
    {
        /**
         * fsync(2) after every append, and fatal() when a record
         * cannot be written: the sweep journal's write-ahead promise.
         */
        PerAppend,
        /** Leave flushing to the kernel; a failed write only warns. */
        None,
    };

    /** Open (creating when missing) the record file at `path`. */
    explicit SweepJournal(std::string path, Sync sync = Sync::PerAppend);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /**
     * The latest record for `digest`, parsed.  nullopt when there is
     * none, or when it is torn or corrupt; the latter warns and sets
     * `*corrupt`.
     */
    std::optional<RunResult> lookup(uint64_t digest,
                                    bool *corrupt = nullptr);

    /**
     * Append one finished point as one line, with one write(2) under
     * flock(LOCK_EX): the header goes first into an empty file, a torn
     * final line is ended first so it cannot swallow this record, and
     * nothing is written when the digest's latest record already has
     * the same bytes.  With Sync::PerAppend the record is on disk when
     * this returns.
     */
    void append(uint64_t digest, const RunResult &result);

    const std::string &path() const { return path_; }

    /** Records this handle wrote (skipped identical ones excluded). */
    uint64_t appended() const;

  private:
    /** Where one record line sits in the file. */
    struct Record
    {
        uint64_t offset = 0;
        uint32_t length = 0; ///< without the '\n'
    };

    /** Index the lines appended since the last scan (mu_ held). */
    LineScan catchUp();

    /** Report a failed append: fatal() or warn() per sync_. */
    void appendFailed(const char *what);

    mutable std::mutex mu_;

    /**
     * Digest-keyed record index; accessed by .find()/operator[] only.
     * Never iterate it -- hash order is implementation-defined and
     * this unit feeds serialization paths (lint rule DET-2).
     */
    std::unordered_map<uint64_t, Record> index_;
    std::string path_;
    Sync sync_;
    int fd_ = -1;          ///< read + append descriptor on path_
    uint64_t scanned_ = 0; ///< bytes of path_ indexed so far
    uint64_t appended_ = 0;
};

/** What loadJournal() found. */
struct JournalLoadStats
{
    uint64_t records = 0;  ///< well-formed records loaded
    uint64_t corrupt = 0;  ///< malformed lines skipped (torn tail included)
};

/**
 * Parse a whole record file into a digest -> result map, for tools
 * and tests that inspect one; sweeps look records up through
 * SweepJournal instead.  A missing file is an empty map; malformed
 * lines are counted in `stats` and skipped; later records win on
 * duplicate digests.
 *
 * The map is for .find() lookups only; never iterate it (hash order
 * is implementation-defined, and this unit's output must be
 * byte-identical across runs -- lint rule DET-2).
 */
std::unordered_map<uint64_t, RunResult>
loadJournal(const std::string &path, JournalLoadStats *stats = nullptr);

/**
 * Parse one record line (exposed for tests).  Returns the
 * (digest, result) pair, or nullopt for headers and malformed lines.
 */
std::optional<std::pair<uint64_t, RunResult>>
parseJournalRecord(std::string_view line);

} // namespace mcscope

#endif // MCSCOPE_CORE_JOURNAL_HH
