#include "util/subprocess.hh"

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "util/logging.hh"
#include "util/transport.hh"

namespace mcscope {

namespace {

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
            // caller sees that as the child's exit status; nothing
            // useful to do here.
            return;
        }
        off += static_cast<size_t>(n);
    }
}

} // namespace

Subprocess::Subprocess(const std::vector<std::string> &argv, int io_fd)
{
    spawn(argv, io_fd, {});
}

Subprocess::Subprocess(const std::vector<std::string> &argv,
                       const std::string &stdin_data,
                       const std::vector<std::string> &extra_env)
{
    // SOCK_CLOEXEC at creation (not fcntl afterwards) closes the race
    // where another thread forks between socketpair() and fork() and
    // its child inherits our end forever; the child's dup2 onto
    // stdin/stdout clears the flag on the only copies that should
    // survive exec.
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0)
        fatal("cannot create a subprocess socket: ", std::strerror(errno));
    spawn(argv, sv[1], extra_env);
    ::close(sv[1]);
    out_fd_ = sv[0];
    writeAll(out_fd_, stdin_data);
    ::shutdown(out_fd_, SHUT_WR); // the child reads EOF after the data
    setNonBlocking(out_fd_);
}

void
Subprocess::spawn(const std::vector<std::string> &argv, int io_fd,
                  const std::vector<std::string> &extra_env)
{
    MCSCOPE_ASSERT(!argv.empty(), "subprocess needs an argv[0]");

    // Dead-child writes must surface as EPIPE, not SIGPIPE (see
    // ignoreSigpipeOnce() for why the ignore is process-wide).
    ignoreSigpipeOnce();

    pid_ = ::fork();
    if (pid_ < 0)
        fatal("fork failed: ", std::strerror(errno));

    if (pid_ == 0) {
        // Child: wire the socket onto stdin/stdout and exec.  io_fd
        // itself carries close-on-exec.
        ::dup2(io_fd, STDIN_FILENO);
        ::dup2(io_fd, STDOUT_FILENO);
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
}

Subprocess::~Subprocess()
{
    if (!exited_) {
        kill();
        wait();
    }
    if (out_fd_ >= 0)
        ::close(out_fd_);
}

bool
Subprocess::readAvailable(std::string &buf)
{
    if (out_fd_ < 0)
        return false;
    if (drainFd(out_fd_, &buf))
        return true; // nothing more right now, socket still open
    // EOF, or a dead socket: close it so the caller runs the
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
