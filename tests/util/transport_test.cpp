/**
 * Framed transport (util/transport.hh): round trips over pipes and
 * loopback TCP, incremental decoding, rejection of truncated,
 * oversized, and garbage streams, and the outbox's drops of a peer
 * that stops reading.
 */

#include "util/transport.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace mcscope {
namespace {

/** A pipe pair that closes whatever is still open at scope exit. */
struct Pipe
{
    int fds[2] = {-1, -1};

    Pipe() { EXPECT_EQ(::pipe2(fds, O_CLOEXEC), 0); }
    ~Pipe()
    {
        closeRead();
        closeWrite();
    }
    void closeRead()
    {
        if (fds[0] >= 0) {
            ::close(fds[0]);
            fds[0] = -1;
        }
    }
    void closeWrite()
    {
        if (fds[1] >= 0) {
            ::close(fds[1]);
            fds[1] = -1;
        }
    }
    int readFd() const { return fds[0]; }
    int writeFd() const { return fds[1]; }
};

std::string
encodePrefix(uint32_t len)
{
    std::string out(4, '\0');
    out[0] = static_cast<char>((len >> 24) & 0xff);
    out[1] = static_cast<char>((len >> 16) & 0xff);
    out[2] = static_cast<char>((len >> 8) & 0xff);
    out[3] = static_cast<char>(len & 0xff);
    return out;
}

TEST(TransportTest, FrameRoundTripOverPipe)
{
    Pipe p;
    const std::vector<std::string> payloads = {
        "", "x", "{\"index\": 3}", std::string(100000, 'a')};
    // The 100 kB payload exceeds the default pipe capacity, so the
    // writer must run concurrently with the reader below (this also
    // exercises writeAllFd's short-write loop for real).
    std::thread writer([&] {
        for (const std::string &payload : payloads)
            EXPECT_TRUE(writeFrame(p.writeFd(), payload));
        p.closeWrite();
    });
    for (const std::string &payload : payloads) {
        bool eof = true;
        std::optional<std::string> got = readFrame(p.readFd(), &eof);
        ASSERT_TRUE(got.has_value());
        EXPECT_FALSE(eof);
        EXPECT_EQ(*got, payload);
    }
    bool eof = false;
    EXPECT_FALSE(readFrame(p.readFd(), &eof).has_value());
    EXPECT_TRUE(eof) << "EOF at a frame boundary must be clean";
    writer.join();
}

TEST(TransportTest, TruncatedFrameIsNotCleanEof)
{
    Pipe p;
    // A full prefix promising 100 bytes, then only 3.
    std::string bytes = encodePrefix(100) + "abc";
    ASSERT_EQ(::write(p.writeFd(), bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    p.closeWrite();
    bool eof = true;
    EXPECT_FALSE(readFrame(p.readFd(), &eof).has_value());
    EXPECT_FALSE(eof) << "a torn frame is a dirty stream, not EOF";
}

TEST(TransportTest, TruncatedPrefixIsNotCleanEof)
{
    Pipe p;
    ASSERT_EQ(::write(p.writeFd(), "\x00\x00", 2), 2);
    p.closeWrite();
    bool eof = true;
    EXPECT_FALSE(readFrame(p.readFd(), &eof).has_value());
    EXPECT_FALSE(eof);
}

TEST(TransportTest, OversizedPrefixRejected)
{
    Pipe p;
    std::string bytes =
        encodePrefix(static_cast<uint32_t>(kMaxFrameBytes) + 1);
    ASSERT_EQ(::write(p.writeFd(), bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    p.closeWrite();
    bool eof = true;
    EXPECT_FALSE(readFrame(p.readFd(), &eof).has_value());
    EXPECT_FALSE(eof);
}

TEST(TransportTest, WriteFrameRejectsOversizedPayload)
{
    Pipe p;
    // Never allocates the jumbo buffer: the size check runs first, so
    // construct a string of the right *reported* size cheaply is not
    // possible -- use a real one just over the cap only if the cap is
    // small.  kMaxFrameBytes is 64 MiB; building 64 MiB + 1 once in a
    // test is acceptable and proves the boundary exactly.
    std::string jumbo(kMaxFrameBytes + 1, 'x');
    EXPECT_FALSE(writeFrame(p.writeFd(), jumbo));
    EXPECT_EQ(errno, EMSGSIZE);
}

TEST(TransportTest, AppendFrameEncodesLikeWriteFrame)
{
    std::string out = "x";
    ASSERT_TRUE(appendFrame(out, "alpha"));
    ASSERT_TRUE(appendFrame(out, ""));
    EXPECT_EQ(out, "x" + encodePrefix(5) + "alpha" + encodePrefix(0));
}

TEST(TransportTest, PollTimeoutEndsByTheDeadline)
{
    using std::chrono::milliseconds;
    const auto now = std::chrono::steady_clock::now();
    EXPECT_EQ(pollTimeoutBefore(200, now, now + milliseconds(500)), 200);
    EXPECT_EQ(pollTimeoutBefore(200, now, now + milliseconds(50)), 51);
    // A due or passed deadline still waits 1 ms, never 0 (no spin),
    // but a caller's 0 stays 0.
    EXPECT_EQ(pollTimeoutBefore(200, now, now - milliseconds(5)), 1);
    EXPECT_EQ(pollTimeoutBefore(0, now, now - milliseconds(5)), 0);
    EXPECT_EQ(pollTimeoutBefore(0, now, now + milliseconds(5)), 0);
}

/** A connected AF_UNIX stream pair, both ends closed at scope exit. */
struct SocketPair
{
    int fds[2] = {-1, -1};

    SocketPair()
    {
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds),
                  0);
    }
    ~SocketPair()
    {
        for (int fd : fds) {
            if (fd >= 0)
                ::close(fd);
        }
    }
};

/**
 * Queue 1 KiB frames into `box`, flushing each at `now`, until the
 * socket stops taking them (the peer never reads).  Returns the bytes
 * queued; stops early if the outbox closes.
 */
size_t
fillUntilBacklog(FrameOutbox &box, FrameOutbox::Clock::time_point now)
{
    const std::string frame(1024, 'r');
    size_t queued = 0;
    for (int k = 0; k < 100000 && box.isOpen() && box.unsent() == 0; ++k) {
        box.queue(frame, now);
        box.flush(now);
        queued += 4 + frame.size();
    }
    return queued;
}

TEST(TransportTest, OutboxDeliversFramesInOrder)
{
    SocketPair sp;
    FrameOutbox box(sp.fds[0], "test peer", 1 << 20, std::chrono::hours(1));
    sp.fds[0] = -1; // the outbox owns it now
    const auto now = FrameOutbox::Clock::now();
    EXPECT_TRUE(box.queue("alpha", now));
    EXPECT_TRUE(box.queue("", now));
    EXPECT_TRUE(box.flush(now));
    EXPECT_EQ(box.unsent(), 0u);
    box.close();
    EXPECT_EQ(readFrame(sp.fds[1]), std::optional<std::string>("alpha"));
    EXPECT_EQ(readFrame(sp.fds[1]), std::optional<std::string>(""));
    bool eof = false;
    EXPECT_FALSE(readFrame(sp.fds[1], &eof).has_value());
    EXPECT_TRUE(eof);
}

TEST(TransportTest, OutboxDropsAReaderThatOwesMoreThanTheBacklogLimit)
{
    // The reader never reads: once the socket buffers are full the
    // backlog grows in the outbox, and one frame past the 4 KiB limit
    // the outbox closes instead of growing or blocking.
    SocketPair sp;
    FrameOutbox box(sp.fds[0], "test peer", 4096, std::chrono::hours(1));
    sp.fds[0] = -1;
    const auto now = FrameOutbox::Clock::now();
    ::testing::internal::CaptureStderr();
    fillUntilBacklog(box, now);
    for (int k = 0; k < 8 && box.isOpen(); ++k) {
        box.queue(std::string(1024, 'r'), now);
        box.flush(now);
    }
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(box.isOpen());
    EXPECT_EQ(box.unsent(), 0u);
    EXPECT_NE(warnings.find("test peer stopped reading"), std::string::npos)
        << warnings;
    // The peer sees the close once it drains what was sent.
    setNonBlocking(sp.fds[1]);
    EXPECT_FALSE(drainFd(sp.fds[1], nullptr));
}

TEST(TransportTest, OutboxDropsAReaderStalledPastTheDeadline)
{
    SocketPair sp;
    const auto stall = std::chrono::seconds(1);
    FrameOutbox box(sp.fds[0], "test peer", size_t{1} << 30, stall);
    sp.fds[0] = -1;
    const auto now = FrameOutbox::Clock::now();
    fillUntilBacklog(box, now);
    ASSERT_TRUE(box.isOpen());
    ASSERT_GT(box.unsent(), 0u);
    EXPECT_EQ(box.stallDeadline(), now + stall);
    // Time is the caller's: at the deadline the backlog stays, one
    // tick past it the outbox closes.
    EXPECT_TRUE(box.flush(now + stall));
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(box.flush(now + stall + std::chrono::milliseconds(1)));
    ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(box.isOpen());
}

TEST(TransportTest, OutboxClosesOnAGonePeer)
{
    SocketPair sp;
    FrameOutbox box(sp.fds[0], "test peer", 1 << 20, std::chrono::hours(1));
    sp.fds[0] = -1;
    ::close(sp.fds[1]);
    sp.fds[1] = -1;
    const auto now = FrameOutbox::Clock::now();
    ::testing::internal::CaptureStderr();
    box.queue("hello", now);
    EXPECT_FALSE(box.flush(now));
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(warnings.find("test peer went away"), std::string::npos)
        << warnings;
    EXPECT_FALSE(box.queue("more", now)) << "a closed outbox takes nothing";
}

TEST(TransportTest, WriteFrameFailsInsteadOfWaitingOnAFullSocket)
{
    // writeFrame is for blocking fds; on a full non-blocking socket it
    // reports EAGAIN rather than waiting for a reader that may never
    // come.
    SocketPair sp;
    setNonBlocking(sp.fds[0]);
    const std::string frame(1 << 16, 'w');
    bool ok = true;
    for (int k = 0; k < 10000 && ok; ++k)
        ok = writeFrame(sp.fds[0], frame);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
}

TEST(TransportTest, FrameBufferIncrementalDecode)
{
    FrameBuffer fb;
    std::string stream;
    const std::vector<std::string> payloads = {"alpha", "", "gamma"};
    for (const std::string &p : payloads)
        stream += encodePrefix(static_cast<uint32_t>(p.size())) + p;
    // Feed one byte at a time; frames must pop exactly at boundaries.
    std::vector<std::string> got;
    for (char c : stream) {
        fb.append(&c, 1);
        while (std::optional<std::string> f = fb.next())
            got.push_back(*f);
    }
    EXPECT_EQ(got, payloads);
    EXPECT_FALSE(fb.malformed());
    EXPECT_EQ(fb.pending(), 0u);
}

TEST(TransportTest, FrameBufferPoisonsPermanentlyOnOversizedPrefix)
{
    FrameBuffer fb;
    std::string bad =
        encodePrefix(static_cast<uint32_t>(kMaxFrameBytes) + 7);
    fb.append(bad.data(), bad.size());
    EXPECT_FALSE(fb.next().has_value());
    EXPECT_TRUE(fb.malformed());
    EXPECT_EQ(fb.pending(), 0u) << "poisoned buffer must not hoard";
    // A valid frame appended afterwards must never surface.
    std::string good = encodePrefix(2) + "ok";
    fb.append(good.data(), good.size());
    EXPECT_FALSE(fb.next().has_value());
    EXPECT_TRUE(fb.malformed());
}

TEST(TransportTest, FrameBufferGarbageFuzz)
{
    // Deterministic garbage: whatever happens, next() must never
    // return a frame longer than the cap and never crash.
    std::mt19937 rng(0xC0FFEE);
    for (int round = 0; round < 50; ++round) {
        FrameBuffer fb;
        std::string garbage(1 + rng() % 4096, '\0');
        for (char &c : garbage)
            c = static_cast<char>(rng() & 0xff);
        fb.append(garbage.data(), garbage.size());
        while (std::optional<std::string> f = fb.next())
            EXPECT_LE(f->size(), kMaxFrameBytes);
        if (fb.malformed()) {
            EXPECT_EQ(fb.pending(), 0u);
        }
    }
}

TEST(TransportTest, TcpLoopbackRoundTrip)
{
    std::string error;
    std::optional<TcpListener> listener =
        tcpListen("127.0.0.1", 0, &error);
    ASSERT_TRUE(listener.has_value()) << error;
    ASSERT_GT(listener->port, 0);

    std::thread client([&] {
        std::string connect_error;
        int fd =
            tcpConnect("127.0.0.1", listener->port, &connect_error);
        ASSERT_GE(fd, 0) << connect_error;
        EXPECT_TRUE(writeFrame(fd, "ping"));
        std::optional<std::string> reply = readFrame(fd);
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(*reply, "pong");
        ::close(fd);
    });

    int conn = tcpAccept(listener->fd);
    ASSERT_GE(conn, 0);
    std::optional<std::string> got = readFrame(conn);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, "ping");
    EXPECT_TRUE(writeFrame(conn, "pong"));
    // Peer closes; the next read is a clean EOF.
    client.join();
    bool eof = false;
    EXPECT_FALSE(readFrame(conn, &eof).has_value());
    EXPECT_TRUE(eof);
    ::close(conn);
    ::close(listener->fd);
}

TEST(TransportTest, ResetAtFrameBoundaryIsCleanEof)
{
    // A peer that closes with bytes we sent still unread resets the
    // connection instead of ending it, as the serve daemon does when
    // it exits before reading a worker's last done frame.  Between
    // frames that is still an orderly goodbye.
    std::string error;
    std::optional<TcpListener> listener =
        tcpListen("127.0.0.1", 0, &error);
    ASSERT_TRUE(listener.has_value()) << error;
    const int fd = tcpConnect("127.0.0.1", listener->port, &error);
    ASSERT_GE(fd, 0) << error;
    const int conn = tcpAccept(listener->fd);
    ASSERT_GE(conn, 0);
    ASSERT_TRUE(writeFrame(fd, "never read"));
    struct pollfd pfd = {conn, POLLIN, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
    ::close(conn);

    bool eof = false;
    const std::optional<std::string> got = readFrame(fd, &eof);
    const int err = errno;
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(err, ECONNRESET) << "the close did not reset";
    EXPECT_TRUE(eof);
    ::close(fd);
    ::close(listener->fd);
}

TEST(TransportTest, AcceptedSocketsCarryCloexec)
{
    std::string error;
    std::optional<TcpListener> listener =
        tcpListen("127.0.0.1", 0, &error);
    ASSERT_TRUE(listener.has_value()) << error;
    EXPECT_NE(::fcntl(listener->fd, F_GETFD) & FD_CLOEXEC, 0);

    std::thread client([&] {
        int fd = tcpConnect("127.0.0.1", listener->port);
        ASSERT_GE(fd, 0);
        EXPECT_NE(::fcntl(fd, F_GETFD) & FD_CLOEXEC, 0);
        ::close(fd);
    });
    int conn = tcpAccept(listener->fd);
    ASSERT_GE(conn, 0);
    EXPECT_NE(::fcntl(conn, F_GETFD) & FD_CLOEXEC, 0);
    client.join();
    ::close(conn);
    ::close(listener->fd);
}

TEST(TransportTest, SplitHostPort)
{
    std::string host;
    int port = 0;
    EXPECT_TRUE(splitHostPort("127.0.0.1:8080", &host, &port));
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 8080);
    EXPECT_TRUE(splitHostPort("::1:443", &host, &port));
    EXPECT_EQ(host, "::1");
    EXPECT_EQ(port, 443);
    EXPECT_FALSE(splitHostPort("nohost", &host, &port));
    EXPECT_FALSE(splitHostPort(":1234", &host, &port));
    EXPECT_FALSE(splitHostPort("host:", &host, &port));
    EXPECT_FALSE(splitHostPort("host:0", &host, &port));
    EXPECT_FALSE(splitHostPort("host:65536", &host, &port));
    EXPECT_FALSE(splitHostPort("host:12x4", &host, &port));
}

} // namespace
} // namespace mcscope
