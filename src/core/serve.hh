/**
 * @file
 * `mcscope serve`: the sharded sweep executor as a long-lived TCP
 * service (DESIGN.md §14).
 *
 * The daemon listens on one TCP port and speaks the framed
 * "mcscope-serve-1" protocol (util/transport.hh length-prefixed JSON
 * frames).  Two kinds of peers connect:
 *
 *  - submit clients (`mcscope submit`) hand over one canonical batch
 *    spec document and receive the per-point result records back as
 *    they complete, then a done frame with the run's ShardRunStats;
 *  - workers (`mcscope worker --connect host:port`) join the worker
 *    pool and execute shard manifests exactly like local fork/exec
 *    workers -- a killed TCP worker degrades the same way a crashed
 *    subprocess does (requeue, retry, backoff, gap).
 *
 * All clients share one content-addressed result store (a ResultCache,
 * core/runner.hh): a point any client ever completed is served from
 * it to every later submitter.  With a journal the store's record
 * file is the journal, so that dedup survives daemon restarts.
 */

#ifndef MCSCOPE_CORE_SERVE_HH
#define MCSCOPE_CORE_SERVE_HH

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>

#include "core/runner.hh"

namespace mcscope {

/** Format stamp on every serve-protocol frame. */
constexpr const char *kServeFormat = "mcscope-serve-1";

/**
 * How long an accepted connection may take to complete its hello
 * before the daemon closes it.  Real peers send the hello right after
 * connecting; a silent one would otherwise hold a descriptor and a
 * poll slot forever.
 */
constexpr std::chrono::seconds kServeHelloDeadline{3};

/**
 * Unsent bytes a submit client may owe before the daemon drops it.
 * The daemon never blocks on a client: its frames queue in an outbox
 * and leave as the socket takes them, so a submitter that stops
 * reading costs memory, never the loop's time.  A reader that keeps
 * up owes at most one batch's records, and the largest admissible
 * batch (kMaxPlanPoints records of a few hundred bytes each) stays
 * well below this.  Dropping a client leaves its batch running: every
 * point still reaches the store.
 */
constexpr size_t kServeClientBacklogBytes = size_t{64} << 20;

/**
 * How long a client may owe bytes without its socket taking any
 * before the daemon drops it -- the bound for a stalled submitter
 * whose batch has finished, so that its backlog no longer grows.
 */
constexpr std::chrono::seconds kServeClientStallDeadline{3};

/** Daemon configuration (`mcscope serve` flags). */
struct ServeOptions
{
    std::string host = "127.0.0.1";
    int port = 0; ///< 0 picks an ephemeral port (printed at startup)

    /** Local worker subprocesses; 0 relies on connected workers only. */
    int shards = 1;

    /**
     * Shared write-ahead journal, also the dedup store's record file;
     * empty keeps the store in memory only.
     */
    std::string journalPath;

    /** On-disk result cache directory handed to workers. */
    std::string cacheDir;

    bool audit = false;
    double pointTimeoutSeconds = 0.0;
    int maxRetries = 2;
    double backoffSeconds = 0.05;

    /** Exit after serving this many batches; 0 serves forever. */
    uint64_t maxBatches = 0;
};

/**
 * Run the daemon until maxBatches submissions complete (or forever).
 * Prints "mcscope serve: listening on HOST:PORT" on `out` once the
 * socket is up.  Returns a process exit code.
 */
int runServe(const ServeOptions &opts, std::ostream &out);

/** Submit client configuration (`mcscope submit` flags). */
struct SubmitOptions
{
    std::string host = "127.0.0.1";
    int port = 0;
    std::string specPath; ///< canonical batch spec document (JSON)
    bool csv = false;
    bool cacheStats = false;
};

/**
 * Submit a batch spec to a serve daemon and render the results
 * exactly like `mcscope batch` would have (byte-identical tables/CSV).
 * Returns a process exit code.
 */
int runSubmit(const SubmitOptions &opts, std::ostream &out);

/**
 * Worker side of `mcscope worker --connect host:port`: connect, send
 * the worker hello, then serve framed manifests until the daemon
 * closes the connection.  Returns a process exit code.
 */
int runConnectedWorker(const std::string &host, int port);

} // namespace mcscope

#endif // MCSCOPE_CORE_SERVE_HH
