/**
 * @file
 * Minimal POSIX subprocess management for the sharded sweep executor.
 *
 * The supervisor (core/runner.hh) launches `mcscope worker --framed`
 * children and talks to each over one socket: a child's stdin and
 * stdout are the same end of a socketpair, the supervisor holds the
 * other end, and frames go both ways on it exactly as they do on a
 * remote worker's TCP socket.  This module wraps the
 * fork/exec/waitpid choreography behind a small RAII class:
 *
 *  - Subprocess(argv, io_fd) execs the child on a socket the caller
 *    made; the caller keeps (and owns) the other end.
 *  - Subprocess(argv, stdin_data) makes the socketpair itself, writes
 *    `stdin_data`, then shuts its write side down so the child reads
 *    EOF after the data; the child's stdout comes back on the
 *    non-blocking outFd(), suitable for poll(2).  Writing all of
 *    stdin first is deadlock-free only for children that drain stdin
 *    before producing output (or, as every caller does, get none).
 *  - stderr passes through to the parent's stderr (worker warnings
 *    surface like the supervisor's own).
 *
 * Everything here is Linux/POSIX; that is the only platform the suite
 * targets (the paper's machines and the CI runners are all Linux).
 */

#ifndef MCSCOPE_UTIL_SUBPROCESS_HH
#define MCSCOPE_UTIL_SUBPROCESS_HH

#include <string>
#include <sys/types.h>
#include <vector>

namespace mcscope {

/** One child process, killed and reaped by its destructor. */
class Subprocess
{
  public:
    /**
     * Fork and exec `argv` (argv[0] is the executable path) with
     * `io_fd` as the child's stdin and stdout.  The caller still owns
     * `io_fd` and closes its copy after the spawn.  fatal() when the
     * executable cannot be spawned.
     */
    Subprocess(const std::vector<std::string> &argv, int io_fd);

    /**
     * Fork and exec `argv` on a fresh socketpair, write `stdin_data`
     * to the child's stdin, and end it there.  Extra environment
     * entries ("KEY=VALUE") are applied on top of the inherited
     * environment.
     */
    Subprocess(const std::vector<std::string> &argv,
               const std::string &stdin_data,
               const std::vector<std::string> &extra_env = {});

    /** Kills (SIGKILL) and reaps the child if still running. */
    ~Subprocess();

    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;

    /**
     * Non-blocking read end of the child's stdout; -1 after EOF was
     * consumed, and always -1 for a child spawned on a caller's fd.
     */
    int outFd() const { return out_fd_; }

    /** Child pid (valid until reaped). */
    pid_t pid() const { return pid_; }

    /**
     * Drain available stdout bytes into `buf` (appending).  Returns
     * false once EOF is reached (and closes the descriptor); returns
     * true while the socket is still open, including when no bytes
     * were ready.
     */
    bool readAvailable(std::string &buf);

    /**
     * Reap the child without blocking.  Returns true when the child
     * has exited (exit status query methods become valid).
     */
    bool tryWait();

    /** Block until the child exits, then reap it. */
    void wait();

    /** SIGKILL the child (no-op when already exited). */
    void kill();

    /** Exit code, or -1 when the child died on a signal. */
    int exitCode() const;

    /** Terminating signal, or 0 for a normal exit. */
    int termSignal() const;

  private:
    void spawn(const std::vector<std::string> &argv, int io_fd,
               const std::vector<std::string> &extra_env);

    pid_t pid_ = -1;
    int out_fd_ = -1;
    bool exited_ = false;
    int status_ = 0;
};

/**
 * Absolute path of the running executable (/proc/self/exe), used by
 * the supervisor to re-invoke itself as `mcscope worker`.  The
 * MCSCOPE_WORKER_EXE environment variable overrides it (tests point
 * it at the real tool when the caller is a test binary).
 */
std::string selfExecutablePath();

} // namespace mcscope

#endif // MCSCOPE_UTIL_SUBPROCESS_HH
