#include "util/subprocess.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/logging.hh"
#include "util/transport.hh"

namespace mcscope {

namespace {

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** write(2) until done; EINTR retried, other errors abandon. */
void
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // EPIPE: the child exited before draining stdin.  The
            // supervisor sees that as a crashed worker via waitpid;
            // nothing useful to do here.
            return;
        }
        off += static_cast<size_t>(n);
    }
}

} // namespace

Subprocess::Subprocess(const std::vector<std::string> &argv,
                       const std::string &stdin_data,
                       const std::vector<std::string> &extra_env,
                       Stdin stdin_mode)
{
    MCSCOPE_ASSERT(!argv.empty(), "subprocess needs an argv[0]");

    // Dead-child writes must surface as EPIPE, not SIGPIPE.  This
    // used to be a per-write sigaction save/restore around the
    // manifest write below, which raced: two threads spawning workers
    // concurrently could interleave so one thread's restore re-armed
    // SIGPIPE in the middle of the other's write.  The process-wide
    // ignore is set exactly once and never restored (nothing in
    // mcscope wants SIGPIPE's kill-me default).
    ignoreSigpipeOnce();

    int in_pipe[2];  // parent writes -> child stdin
    int out_pipe[2]; // child stdout -> parent reads
    // O_CLOEXEC at creation (not fcntl afterwards) closes the race
    // where another thread forks between pipe() and fork() and its
    // child inherits our pipe ends forever; the dup2 below clears the
    // flag on the child's own stdin/stdout copies, which is the only
    // place these descriptors should survive exec.
    if (::pipe2(in_pipe, O_CLOEXEC) != 0 ||
        ::pipe2(out_pipe, O_CLOEXEC) != 0)
        fatal("cannot create subprocess pipes: ", std::strerror(errno));

    pid_ = ::fork();
    if (pid_ < 0)
        fatal("fork failed: ", std::strerror(errno));

    if (pid_ == 0) {
        // Child: wire the pipes onto stdin/stdout and exec.
        ::dup2(in_pipe[0], STDIN_FILENO);
        ::dup2(out_pipe[1], STDOUT_FILENO);
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        std::vector<char *> cargv;
        cargv.reserve(argv.size() + 1);
        for (const std::string &a : argv)
            cargv.push_back(const_cast<char *>(a.c_str()));
        cargv.push_back(nullptr);
        for (const std::string &kv : extra_env) {
            size_t eq = kv.find('=');
            if (eq == std::string::npos)
                continue;
            ::setenv(kv.substr(0, eq).c_str(),
                     kv.substr(eq + 1).c_str(), 1);
        }
        ::execv(cargv[0], cargv.data());
        // Exec failure: report on the inherited stderr and die with a
        // status the supervisor counts as a crash.
        std::string msg = "mcscope: cannot exec " + argv[0] + ": " +
                          std::strerror(errno) + "\n";
        writeAll(STDERR_FILENO, msg);
        ::_exit(127);
    }

    // Parent.  The surviving ends already carry O_CLOEXEC from
    // pipe2().
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    out_fd_ = out_pipe[0];
    setNonBlocking(out_fd_);

    // Writing the whole payload before reading anything is safe
    // because workers consume all of stdin before emitting output
    // (see the file comment); SIGPIPE is already ignored process-wide
    // (ctor), so an early-crashing child surfaces as a reaped status,
    // not a signal in the supervisor.
    writeAll(in_pipe[1], stdin_data);
    if (stdin_mode == Stdin::Keep)
        in_fd_ = in_pipe[1];
    else
        ::close(in_pipe[1]);
}

Subprocess::~Subprocess()
{
    if (!exited_) {
        kill();
        wait();
    }
    if (out_fd_ >= 0)
        ::close(out_fd_);
    closeStdin();
}

void
Subprocess::closeStdin()
{
    if (in_fd_ >= 0) {
        ::close(in_fd_);
        in_fd_ = -1;
    }
}

bool
Subprocess::readAvailable(std::string &buf)
{
    if (out_fd_ < 0)
        return false;
    if (drainFd(out_fd_, &buf))
        return true; // nothing more right now, pipe still open
    // EOF, or a dead pipe: close it so the caller runs the
    // death/retry path instead of polling forever.
    ::close(out_fd_);
    out_fd_ = -1;
    return false;
}

bool
Subprocess::tryWait()
{
    if (exited_)
        return true;
    int status = 0;
    pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
        status_ = status;
        exited_ = true;
    }
    return exited_;
}

void
Subprocess::wait()
{
    if (exited_)
        return;
    int status = 0;
    while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    status_ = status;
    exited_ = true;
}

void
Subprocess::kill()
{
    if (!exited_)
        ::kill(pid_, SIGKILL);
}

int
Subprocess::exitCode() const
{
    MCSCOPE_ASSERT(exited_, "exitCode() before the child was reaped");
    if (WIFEXITED(status_))
        return WEXITSTATUS(status_);
    return -1;
}

int
Subprocess::termSignal() const
{
    MCSCOPE_ASSERT(exited_, "termSignal() before the child was reaped");
    if (WIFSIGNALED(status_))
        return WTERMSIG(status_);
    return 0;
}

std::string
selfExecutablePath()
{
    if (const char *env = std::getenv("MCSCOPE_WORKER_EXE")) {
        if (*env)
            return env;
    }
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        fatal("cannot resolve /proc/self/exe: ", std::strerror(errno));
    buf[n] = '\0';
    return buf;
}

} // namespace mcscope
