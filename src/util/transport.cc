#include "util/transport.hh"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <mutex>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.hh"

namespace mcscope {

namespace {

/** Encode/decode the 4-byte big-endian length prefix. */
void
encodeLength(uint32_t len, char out[4])
{
    out[0] = static_cast<char>((len >> 24) & 0xff);
    out[1] = static_cast<char>((len >> 16) & 0xff);
    out[2] = static_cast<char>((len >> 8) & 0xff);
    out[3] = static_cast<char>(len & 0xff);
}

uint32_t
decodeLength(const char in[4])
{
    return (static_cast<uint32_t>(static_cast<unsigned char>(in[0]))
            << 24) |
           (static_cast<uint32_t>(static_cast<unsigned char>(in[1]))
            << 16) |
           (static_cast<uint32_t>(static_cast<unsigned char>(in[2]))
            << 8) |
           static_cast<uint32_t>(static_cast<unsigned char>(in[3]));
}

/**
 * Write all of [data, data+len) to `fd`.  send(MSG_NOSIGNAL) keeps a
 * dead socket peer from raising SIGPIPE even before
 * ignoreSigpipeOnce() ran; ENOTSOCK falls back to write(2) for pipes.
 */
bool
writeAllFd(int fd, const char *data, size_t len)
{
    size_t off = 0;
    bool use_send = true;
    while (off < len) {
        ssize_t n;
        if (use_send) {
            n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
            if (n < 0 && errno == ENOTSOCK) {
                use_send = false;
                continue;
            }
        } else {
            n = ::write(fd, data + off, len - off);
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) {
                // Non-blocking socket with a full send buffer (the
                // serve daemon's client/worker fds): wait for space
                // rather than surfacing a spurious short write.
                struct pollfd pfd = {fd, POLLOUT, 0};
                ::poll(&pfd, 1, -1);
                continue;
            }
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/** Read exactly `len` bytes from a blocking fd; false on EOF/error. */
bool
readExact(int fd, char *out, size_t len, bool *eof_at_start)
{
    size_t off = 0;
    while (off < len) {
        ssize_t n = ::read(fd, out + off, len - off);
        if (n == 0) {
            if (eof_at_start)
                *eof_at_start = (off == 0);
            return false;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // A peer that closes with our last bytes unread resets
            // the connection instead of ending it; at a frame
            // boundary that is still its orderly goodbye.
            if (eof_at_start)
                *eof_at_start = off == 0 && errno == ECONNRESET;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace

void
ignoreSigpipeOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        struct sigaction ignore = {};
        ignore.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore, nullptr);
    });
}

bool
appendFrame(std::string &out, const std::string &payload)
{
    if (payload.size() > kMaxFrameBytes) {
        errno = EMSGSIZE;
        return false;
    }
    char prefix[4];
    encodeLength(static_cast<uint32_t>(payload.size()), prefix);
    out.append(prefix, sizeof(prefix));
    out.append(payload);
    return true;
}

bool
writeFrame(int fd, const std::string &payload)
{
    // One buffer, one writev-shaped write: the prefix and a small
    // payload usually leave in a single segment, and a reader never
    // observes a prefix with no payload behind it on a pipe.
    std::string frame;
    frame.reserve(4 + payload.size());
    return appendFrame(frame, payload) &&
           writeAllFd(fd, frame.data(), frame.size());
}

std::optional<std::string>
readFrame(int fd, bool *eof)
{
    if (eof)
        *eof = false;
    char prefix[4];
    bool eof_at_start = false;
    if (!readExact(fd, prefix, sizeof(prefix), &eof_at_start)) {
        if (eof && eof_at_start)
            *eof = true;
        return std::nullopt;
    }
    const uint32_t len = decodeLength(prefix);
    if (len > kMaxFrameBytes)
        return std::nullopt;
    std::string payload(len, '\0');
    if (len > 0 && !readExact(fd, payload.data(), len, nullptr))
        return std::nullopt;
    return payload;
}

void
FrameBuffer::append(const char *data, size_t len)
{
    if (malformed_)
        return;
    buf_.append(data, len);
}

std::optional<std::string>
FrameBuffer::next()
{
    if (malformed_ || buf_.size() < 4)
        return std::nullopt;
    const uint32_t len = decodeLength(buf_.data());
    if (len > kMaxFrameBytes) {
        // Poison, don't resync: past this point every byte offset is
        // attacker/corruption-chosen, so no later "frame" can be
        // trusted.  Drop the buffer so a hostile stream cannot park
        // unbounded garbage here either.
        malformed_ = true;
        buf_.clear();
        buf_.shrink_to_fit();
        return std::nullopt;
    }
    if (buf_.size() < 4 + static_cast<size_t>(len))
        return std::nullopt;
    std::string payload = buf_.substr(4, len);
    buf_.erase(0, 4 + static_cast<size_t>(len));
    return payload;
}

int
pollTimeoutBefore(int timeout_ms, std::chrono::steady_clock::time_point now,
                  std::chrono::steady_clock::time_point when)
{
    const double ms =
        std::chrono::duration<double, std::milli>(when - now).count();
    if (ms >= timeout_ms)
        return timeout_ms;
    return ms < 1.0 ? std::min(timeout_ms, 1) : static_cast<int>(ms) + 1;
}

std::optional<TcpListener>
tcpListen(const std::string &host, int port, std::string *error)
{
    struct addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    struct addrinfo *res = nullptr;
    const std::string port_text = std::to_string(port);
    int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                           port_text.c_str(), &hints, &res);
    if (rc != 0) {
        if (error)
            *error = std::string("getaddrinfo: ") + ::gai_strerror(rc);
        return std::nullopt;
    }
    std::string last_error = "no usable address";
    for (struct addrinfo *ai = res; ai; ai = ai->ai_next) {
        int fd = ::socket(ai->ai_family,
                          ai->ai_socktype | SOCK_CLOEXEC,
                          ai->ai_protocol);
        if (fd < 0) {
            last_error = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
            ::listen(fd, 64) != 0) {
            last_error = std::string("bind/listen: ") +
                         std::strerror(errno);
            ::close(fd);
            continue;
        }
        struct sockaddr_storage bound = {};
        socklen_t bound_len = sizeof(bound);
        TcpListener out;
        out.fd = fd;
        out.port = port;
        if (::getsockname(fd,
                          reinterpret_cast<struct sockaddr *>(&bound),
                          &bound_len) == 0) {
            if (bound.ss_family == AF_INET) {
                out.port = ntohs(
                    reinterpret_cast<struct sockaddr_in *>(&bound)
                        ->sin_port);
            } else if (bound.ss_family == AF_INET6) {
                out.port = ntohs(
                    reinterpret_cast<struct sockaddr_in6 *>(&bound)
                        ->sin6_port);
            }
        }
        ::freeaddrinfo(res);
        return out;
    }
    ::freeaddrinfo(res);
    if (error)
        *error = last_error;
    return std::nullopt;
}

int
tcpAccept(int listen_fd)
{
    for (;;) {
        int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd >= 0)
            return fd;
        if (errno == EINTR)
            continue;
        return -1;
    }
}

int
tcpConnect(const std::string &host, int port, std::string *error)
{
    struct addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo *res = nullptr;
    const std::string port_text = std::to_string(port);
    int rc =
        ::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &res);
    if (rc != 0) {
        if (error)
            *error = std::string("getaddrinfo: ") + ::gai_strerror(rc);
        return -1;
    }
    std::string last_error = "no usable address";
    for (struct addrinfo *ai = res; ai; ai = ai->ai_next) {
        int fd = ::socket(ai->ai_family,
                          ai->ai_socktype | SOCK_CLOEXEC,
                          ai->ai_protocol);
        if (fd < 0) {
            last_error = std::string("socket: ") + std::strerror(errno);
            continue;
        }
        int connect_rc;
        do {
            connect_rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        } while (connect_rc != 0 && errno == EINTR);
        if (connect_rc == 0) {
            ::freeaddrinfo(res);
            return fd;
        }
        last_error = std::string("connect: ") + std::strerror(errno);
        ::close(fd);
    }
    ::freeaddrinfo(res);
    if (error)
        *error = last_error;
    return -1;
}

bool
splitHostPort(const std::string &arg, std::string *host, int *port)
{
    const size_t colon = arg.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= arg.size())
        return false;
    const std::string port_text = arg.substr(colon + 1);
    long v = 0;
    for (char c : port_text) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + (c - '0');
        if (v > 65535)
            return false;
    }
    if (v <= 0)
        return false;
    *host = arg.substr(0, colon);
    *port = static_cast<int>(v);
    return true;
}

} // namespace mcscope
