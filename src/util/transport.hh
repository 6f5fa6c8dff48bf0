/**
 * @file
 * Length-prefixed frame transport for the sharded sweep executor and
 * the `mcscope serve` daemon (DESIGN.md §14).
 *
 * The PR 5 executor spoke newline-delimited JSON over pipes, which
 * worked because a pipe has exactly one writer and the supervisor
 * closed stdin to mark end-of-manifest.  A long-lived socket (or a
 * reusable worker pipe) needs real message boundaries: a worker must
 * accept many manifests per connection, and a half-dead peer must be
 * detectable as a malformed stream rather than a silent hang.  The
 * frame format is deliberately minimal:
 *
 *   +----------------------+---------------------+
 *   | length: u32 big-endian | payload: length bytes |
 *   +----------------------+---------------------+
 *
 * with `length` capped at kMaxFrameBytes (a manifest for an absurdly
 * large grid still fits; anything larger is a corrupt or hostile
 * stream and permanently poisons the decoder, never allocates).
 * Payloads are JSON documents -- the same manifest/record objects the
 * pipe protocol used, now one object per frame instead of per line.
 *
 * Everything here works on any byte-stream fd: a pipe end, a
 * socketpair half, or a TCP socket.  Writers handle EINTR and partial
 * writes; readers handle EINTR and short reads; SIGPIPE is never
 * raised (MSG_NOSIGNAL on sockets, process-wide SIG_IGN via
 * ignoreSigpipeOnce() for pipes).
 */

#ifndef MCSCOPE_UTIL_TRANSPORT_HH
#define MCSCOPE_UTIL_TRANSPORT_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace mcscope {

/** Frame payload ceiling; larger prefixes mark the stream corrupt. */
constexpr size_t kMaxFrameBytes = 64u << 20;

/**
 * Ignore SIGPIPE for the whole process, once.  Every writer of pipes
 * or sockets calls this; a dead peer then surfaces as EPIPE from
 * write(2) instead of killing the process.  Replaces the old
 * per-write sigaction save/restore in util/subprocess.cc, which raced
 * when two supervisor threads (or a supervisor and a serve connection
 * handler) wrote concurrently: one thread's restore could re-arm
 * SIGPIPE in the middle of the other's write.
 */
void ignoreSigpipeOnce();

/**
 * Write one frame (4-byte big-endian length + payload) to `fd`,
 * retrying EINTR and partial writes.  Uses send(MSG_NOSIGNAL) on
 * sockets and plain write(2) on other fds (after ignoreSigpipeOnce(),
 * so a broken pipe is an error return, not a signal).
 *
 * @return true when the whole frame was written; false on any error
 *         (errno describes it) or when the payload exceeds
 *         kMaxFrameBytes.
 */
bool writeFrame(int fd, const std::string &payload);

/**
 * Append one encoded frame (length prefix + payload) to `out`, for a
 * writer that sends on its own schedule (the serve daemon's client
 * outbox).  Returns false, leaving `out` as it was, when the payload
 * exceeds kMaxFrameBytes.
 */
bool appendFrame(std::string &out, const std::string &payload);

/**
 * Read exactly one frame from a blocking fd.  Returns nullopt on a
 * clean EOF at a frame boundary, a truncated frame, a read error, or
 * an oversized/garbage length prefix.  `eof` (when non-null) is set
 * true only for the clean-EOF case -- an EOF or a connection reset
 * before the first byte of a frame -- so callers can tell an orderly
 * shutdown from a torn stream.
 */
std::optional<std::string> readFrame(int fd, bool *eof = nullptr);

/**
 * Incremental frame decoder for non-blocking fds: append whatever
 * bytes arrived, then drain complete frames with next().  Once a
 * malformed length prefix is seen the buffer is permanently poisoned
 * -- resynchronizing inside a corrupt byte stream would risk treating
 * attacker- or corruption-chosen bytes as a record.
 */
class FrameBuffer
{
  public:
    /** Feed bytes read from the fd (ignored once malformed). */
    void append(const char *data, size_t len);
    void append(const std::string &bytes)
    {
        append(bytes.data(), bytes.size());
    }

    /** Next complete frame payload, or nullopt (incomplete/poisoned). */
    std::optional<std::string> next();

    /** True once an oversized length prefix poisoned the stream. */
    bool malformed() const { return malformed_; }

    /** Bytes buffered but not yet consumed by next(). */
    size_t pending() const { return buf_.size(); }

  private:
    std::string buf_;
    bool malformed_ = false;
};

/**
 * A poll(2) timeout that also ends the wait by `when`: the smaller of
 * `timeout_ms` and the milliseconds from `now` to `when`, rounded up
 * (at least 1, so a deadline never turns the poll into a spin).
 */
int pollTimeoutBefore(int timeout_ms,
                      std::chrono::steady_clock::time_point now,
                      std::chrono::steady_clock::time_point when);

/** A listening TCP socket and the port it actually bound. */
struct TcpListener
{
    int fd = -1;

    /** Bound port; differs from the requested one for port 0. */
    int port = 0;
};

/**
 * Listen on host:port (IPv4/IPv6 via getaddrinfo; port 0 picks a free
 * port).  The socket carries SOCK_CLOEXEC so worker subprocesses
 * forked while the daemon serves never inherit it (lint rule FD-1).
 * Returns nullopt and sets `error` on failure.
 */
std::optional<TcpListener> tcpListen(const std::string &host, int port,
                                     std::string *error = nullptr);

/**
 * Accept one pending connection (SOCK_CLOEXEC via accept4).  Returns
 * the connected fd, or -1 when nothing was pending or on error.
 */
int tcpAccept(int listen_fd);

/**
 * Connect to host:port.  Returns a connected fd (O_CLOEXEC), or -1
 * with `error` set.
 */
int tcpConnect(const std::string &host, int port,
               std::string *error = nullptr);

/**
 * Split "host:port" (the --connect argument).  Returns false on a
 * missing/empty host or a non-numeric/out-of-range port.
 */
bool splitHostPort(const std::string &arg, std::string *host,
                   int *port);

} // namespace mcscope

#endif // MCSCOPE_UTIL_TRANSPORT_HH
