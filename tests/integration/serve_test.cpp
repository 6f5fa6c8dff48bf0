/**
 * @file
 * End-to-end properties of `mcscope serve` over loopback TCP, driving
 * the real binary (MCSCOPE_TOOL_PATH): a daemon, submit clients, and
 * `worker --connect` workers as real subprocesses.
 *
 * The core properties:
 *  - submit output is byte-identical to `mcscope batch` for the same
 *    spec, and a resubmission is served entirely from the journal;
 *  - a TCP worker SIGKILLed at every point index degrades exactly
 *    like a crashed local subprocess: a clean worker finishes the
 *    batch and the client still gets the byte-identical table;
 *  - a peer that connects and never sends its hello is closed at the
 *    hello deadline while other clients are served normally;
 *  - a submitter that never reads its records, and a spec naming more
 *    than kMaxPlanPoints points, cost the daemon nothing: the next
 *    submitter is served byte-identically;
 *  - resubmissions served from the journal wait on no timer.
 */

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/journal.hh"
#include "core/serve.hh"
#include "util/json.hh"
#include "util/subprocess.hh"
#include "util/transport.hh"

using namespace mcscope;

namespace {

// Timing bounds stretch under ThreadSanitizer, which slows the test
// and every tool process it starts several-fold.
#if defined(__SANITIZE_THREAD__)
constexpr int kTimingScale = 10;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kTimingScale = 10;
#else
constexpr int kTimingScale = 1;
#endif
#else
constexpr int kTimingScale = 1;
#endif

/** Fresh empty directory under the system temp dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("mcscope_" + tag + "_" +
                  std::to_string(static_cast<unsigned>(getpid()))))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    std::string file(const std::string &name) const
    {
        return path_ + "/" + name;
    }

  private:
    std::string path_;
};

struct ToolRun
{
    int exit = -1;
    int signal = 0;
    std::string out;
};

/** Run the real tool to completion, capturing stdout. */
ToolRun
runTool(const std::vector<std::string> &args,
        const std::vector<std::string> &extra_env = {})
{
    std::vector<std::string> argv{MCSCOPE_TOOL_PATH};
    argv.insert(argv.end(), args.begin(), args.end());
    Subprocess proc(argv, /*stdin_data=*/"", extra_env);
    ToolRun run;
    while (proc.readAvailable(run.out)) {
        struct pollfd pfd = {proc.outFd(), POLLIN, 0};
        if (pfd.fd >= 0)
            ::poll(&pfd, 1, 50);
    }
    proc.wait();
    run.exit = proc.exitCode();
    run.signal = proc.termSignal();
    return run;
}

/** The tool as a long-running background process (daemon, client). */
class BackgroundTool
{
  public:
    BackgroundTool(const std::vector<std::string> &args,
                   const std::vector<std::string> &extra_env = {})
    {
        std::vector<std::string> argv{MCSCOPE_TOOL_PATH};
        argv.insert(argv.end(), args.begin(), args.end());
        proc_ = std::make_unique<Subprocess>(
            argv, /*stdin_data=*/"", extra_env);
    }

    /** Pump stdout; true while the process keeps the pipe open. */
    bool pump()
    {
        if (!open_)
            return false;
        open_ = proc_->readAvailable(out_);
        return open_;
    }

    /** Wait until stdout contains `needle`; false on timeout/exit. */
    bool waitForOutput(const std::string &needle, int timeout_ms)
    {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(timeout_ms);
        while (out_.find(needle) == std::string::npos) {
            if (!pump() &&
                out_.find(needle) == std::string::npos)
                return false;
            if (std::chrono::steady_clock::now() > deadline)
                return false;
            struct pollfd pfd = {proc_->outFd(), POLLIN, 0};
            if (pfd.fd >= 0)
                ::poll(&pfd, 1, 50);
        }
        return true;
    }

    /** Drain until exit and reap. */
    ToolRun wait()
    {
        while (pump()) {
            struct pollfd pfd = {proc_->outFd(), POLLIN, 0};
            if (pfd.fd >= 0)
                ::poll(&pfd, 1, 50);
        }
        proc_->wait();
        ToolRun run;
        run.exit = proc_->exitCode();
        run.signal = proc_->termSignal();
        run.out = out_;
        return run;
    }

    void kill() { proc_->kill(); }
    pid_t pid() const { return proc_->pid(); }
    const std::string &out() const { return out_; }

  private:
    std::unique_ptr<Subprocess> proc_;
    std::string out_;
    bool open_ = true;
};

/** Write the small plan spec used throughout; returns its path. */
std::string
writeSpec(const TempDir &dir)
{
    const std::string path = dir.file("plan.json");
    std::ofstream(path) << "{\n"
                           "  \"machine\": \"dmz\",\n"
                           "  \"workloads\": [\"nas-ep-b\"],\n"
                           "  \"ranks\": [2, 4],\n"
                           "  \"options\": [0, 3]\n"
                           "}\n";
    return path;
}

/** Parse the bound port out of the daemon's startup banner. */
int
listeningPort(const std::string &out)
{
    const std::string marker = "listening on 127.0.0.1:";
    const size_t pos = out.find(marker);
    if (pos == std::string::npos)
        return -1;
    int port = 0;
    for (size_t i = pos + marker.size();
         i < out.size() && out[i] >= '0' && out[i] <= '9'; ++i)
        port = port * 10 + (out[i] - '0');
    return port > 0 ? port : -1;
}

TEST(Serve, SubmitMatchesBatchByteIdenticalAndDedups)
{
    TempDir dir("serve_submit");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;
    ASSERT_FALSE(golden.out.empty());

    BackgroundTool serve({"serve", "--port", "0", "--shards", "2",
                          "--journal", dir.file("serve.journal"),
                          "--max-batches", "2"});
    ASSERT_TRUE(serve.waitForOutput("listening on", 30000))
        << serve.out();
    const int port = listeningPort(serve.out());
    ASSERT_GT(port, 0) << serve.out();
    const std::string addr = "127.0.0.1:" + std::to_string(port);

    ToolRun first =
        runTool({"submit", spec, "--connect", addr, "--csv"});
    ASSERT_EQ(first.exit, 0) << first.out;
    EXPECT_EQ(first.out, golden.out);

    // The resubmission costs nothing: every point is a journal hit,
    // fed from the daemon's cross-client dedup map.
    ToolRun second = runTool({"submit", spec, "--connect", addr,
                              "--csv", "--cache-stats"});
    ASSERT_EQ(second.exit, 0) << second.out;
    EXPECT_NE(second.out.find("4 from journal, 0 executed"),
              std::string::npos)
        << second.out;
    EXPECT_EQ(second.out.substr(0, golden.out.size()), golden.out);

    ToolRun served = serve.wait();
    EXPECT_EQ(served.exit, 0) << served.out;

    // The dedup outlives the daemon: a new one on the same journal
    // answers the spec from it.
    BackgroundTool again({"serve", "--port", "0", "--shards", "2",
                          "--journal", dir.file("serve.journal"),
                          "--max-batches", "1"});
    ASSERT_TRUE(again.waitForOutput("listening on", 30000))
        << again.out();
    const int again_port = listeningPort(again.out());
    ASSERT_GT(again_port, 0) << again.out();
    ToolRun third = runTool({"submit", spec, "--connect",
                             "127.0.0.1:" + std::to_string(again_port),
                             "--csv", "--cache-stats"});
    ASSERT_EQ(third.exit, 0) << third.out;
    EXPECT_NE(third.out.find("4 from journal, 0 executed"),
              std::string::npos)
        << third.out;
    EXPECT_EQ(third.out.substr(0, golden.out.size()), golden.out);
    EXPECT_EQ(again.wait().exit, 0);
}

TEST(Serve, SubmitIgnoresOutOfRangeFrameNumbers)
{
    // Casting a number outside size_t's or uint64_t's range is
    // undefined behaviour; the client must treat such a point index
    // as malformed and such a counter as absent.
    TempDir dir("serve_submit_numbers");
    const std::string spec = writeSpec(dir);
    std::ifstream in(spec);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string error;
    std::optional<SweepPlan> plan =
        SweepPlan::fromJson(*parseJson(text), &error);
    ASSERT_TRUE(plan.has_value()) << error;
    RunResult result;
    result.valid = true;
    result.seconds = 1.0;
    const std::string record =
        runResultToJson(plan->digests()[0], result).dump();

    // A fake daemon: one record for point 0 spelled 1e300, then a
    // done frame with a negative count.
    std::optional<TcpListener> listener =
        tcpListen("127.0.0.1", 0, &error);
    ASSERT_TRUE(listener.has_value()) << error;
    std::thread daemon([&] {
        const int fd = tcpAccept(listener->fd);
        if (fd < 0)
            return;
        readFrame(fd); // the hello
        writeFrame(fd, "{\"type\":\"record\",\"point\":1e300,"
                       "\"result\":" + record + "}");
        writeFrame(fd, "{\"type\":\"done\",\"stats\":"
                       "{\"executed\":-1,\"journaled\":1e300}}");
        ::close(fd);
    });
    SubmitOptions opts;
    opts.port = listener->port;
    opts.specPath = spec;
    opts.csv = true;
    opts.cacheStats = true;
    std::ostringstream out;
    ::testing::internal::CaptureStderr();
    const int rc = runSubmit(opts, out);
    const std::string warnings = ::testing::internal::GetCapturedStderr();
    daemon.join();
    ::close(listener->fd);

    EXPECT_EQ(rc, 0) << out.str();
    EXPECT_NE(warnings.find("malformed record frame"), std::string::npos)
        << warnings;
    EXPECT_NE(out.str().find("journal: 0 from journal, 0 executed"),
              std::string::npos)
        << out.str();
}

TEST(Serve, HumanTableMatchesBatchToo)
{
    TempDir dir("serve_table");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    BackgroundTool serve({"serve", "--port", "0", "--shards", "1",
                          "--max-batches", "1"});
    ASSERT_TRUE(serve.waitForOutput("listening on", 30000))
        << serve.out();
    const int port = listeningPort(serve.out());
    ASSERT_GT(port, 0) << serve.out();

    ToolRun submit = runTool({"submit", spec, "--connect",
                              "127.0.0.1:" + std::to_string(port)});
    ASSERT_EQ(submit.exit, 0) << submit.out;
    EXPECT_EQ(submit.out, golden.out);

    ToolRun served = serve.wait();
    EXPECT_EQ(served.exit, 0) << served.out;
}

TEST(Serve, RemoteWorkerKilledAtEveryPointIsRecovered)
{
    TempDir dir("serve_worker_crash");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;
    const size_t points = 4;

    for (size_t i = 0; i < points; ++i) {
        SCOPED_TRACE("worker crash at point " + std::to_string(i));
        const std::string journal =
            dir.file("crash_" + std::to_string(i) + ".journal");

        // --shards 0: the daemon has no local workers, so the batch
        // runs entirely on the connected TCP workers.
        BackgroundTool serve({"serve", "--port", "0", "--shards",
                              "0", "--journal", journal,
                              "--max-batches", "1"});
        ASSERT_TRUE(serve.waitForOutput("listening on", 30000))
            << serve.out();
        const int port = listeningPort(serve.out());
        ASSERT_GT(port, 0) << serve.out();
        const std::string addr =
            "127.0.0.1:" + std::to_string(port);

        // The doomed worker connects first, so it owns the whole
        // manifest and dies (SIGKILL, from the fault hook) the moment
        // it reaches point i.
        BackgroundTool doomed(
            {"worker", "--connect", addr},
            {"MCSCOPE_FAULT_INJECT=crash:" + std::to_string(i)});

        BackgroundTool submit(
            {"submit", spec, "--connect", addr, "--csv"});

        // Give the doomed worker time to take the manifest and die,
        // then attach the clean worker that finishes the batch
        // (retrying the suspect point).
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
        BackgroundTool clean({"worker", "--connect", addr});

        ToolRun submitted = submit.wait();
        ASSERT_EQ(submitted.exit, 0) << submitted.out;
        EXPECT_EQ(submitted.out, golden.out);

        ToolRun served = serve.wait();
        EXPECT_EQ(served.exit, 0) << served.out;
        // The daemon's batch summary records the crash recovery.
        EXPECT_NE(served.out.find("1 crashes"), std::string::npos)
            << served.out;

        // The clean worker gets EOF when the daemon exits and must
        // leave quietly; the doomed one died by SIGKILL.
        ToolRun clean_run = clean.wait();
        EXPECT_EQ(clean_run.exit, 0);
        ToolRun doomed_run = doomed.wait();
        EXPECT_EQ(doomed_run.signal, SIGKILL);
    }
}

TEST(Serve, SilentPeerIsDroppedAtHelloDeadline)
{
    TempDir dir("serve_silent");
    const std::string spec = writeSpec(dir);

    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    // --max-batches 0 serves forever, so only the hello deadline can
    // close the silent peer; the daemon is killed at the end.
    BackgroundTool serve({"serve", "--port", "0", "--shards", "1",
                          "--max-batches", "0"});
    ASSERT_TRUE(serve.waitForOutput("listening on", 30000))
        << serve.out();
    const int port = listeningPort(serve.out());
    ASSERT_GT(port, 0) << serve.out();
    const std::string addr = "127.0.0.1:" + std::to_string(port);

    // A peer that connects and never says a word.
    std::string error;
    const auto connected = std::chrono::steady_clock::now();
    const int silent = tcpConnect("127.0.0.1", port, &error);
    ASSERT_GE(silent, 0) << error;

    // A well-behaved submitter on the same daemon meanwhile.
    BackgroundTool submit({"submit", spec, "--connect", addr, "--csv"});

    // The daemon closes the silent peer once the deadline passes:
    // read() sees EOF no earlier than the deadline and no later than
    // a second after it.
    const auto limit = connected + kServeHelloDeadline +
                       std::chrono::seconds(1);
    bool eof = false;
    while (!eof && std::chrono::steady_clock::now() < limit) {
        struct pollfd pfd = {silent, POLLIN, 0};
        if (::poll(&pfd, 1, 50) <= 0)
            continue;
        char byte;
        eof = ::read(silent, &byte, 1) <= 0;
    }
    const auto elapsed = std::chrono::steady_clock::now() - connected;
    ::close(silent);
    EXPECT_TRUE(eof) << "silent peer still open after the hello deadline";
    EXPECT_GE(elapsed, kServeHelloDeadline);

    ToolRun submitted = submit.wait();
    EXPECT_EQ(submitted.exit, 0) << submitted.out;
    EXPECT_EQ(submitted.out, golden.out);

    serve.kill();
}

TEST(Serve, BadSpecsAreRejectedAtBothEnds)
{
    TempDir dir("serve_badspec");
    const std::string bad = dir.file("bad.json");
    std::ofstream(bad) << "{\"machine\": \"longs\"}\n";

    BackgroundTool serve({"serve", "--port", "0", "--shards", "1",
                          "--max-batches", "0"});
    ASSERT_TRUE(serve.waitForOutput("listening on", 30000))
        << serve.out();
    const int port = listeningPort(serve.out());
    ASSERT_GT(port, 0) << serve.out();

    // The submit client computes digests locally, so it catches a
    // bad spec before ever bothering the daemon.
    ToolRun submit = runTool({"submit", bad, "--connect",
                              "127.0.0.1:" + std::to_string(port)});
    EXPECT_EQ(submit.exit, 2);
    EXPECT_NE(submit.out.find("workloads"), std::string::npos)
        << submit.out;

    // A hand-rolled client that skips that check gets the daemon's
    // error frame and a close instead of a hang.
    std::string error;
    int fd = tcpConnect("127.0.0.1", port, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(writeFrame(
        fd, "{\"format\": \"mcscope-serve-1\", \"role\": \"submit\","
            " \"spec\": {\"machine\": \"longs\"}}"));
    std::optional<std::string> reply = readFrame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("\"error\""), std::string::npos) << *reply;
    EXPECT_NE(reply->find("workloads"), std::string::npos) << *reply;
    bool eof = false;
    EXPECT_FALSE(readFrame(fd, &eof).has_value());
    EXPECT_TRUE(eof) << "daemon must close after the error frame";
    ::close(fd);

    // A malformed hello (wrong format string) is refused the same
    // way, and the daemon survives both abuses to serve the next
    // well-behaved peer.
    fd = tcpConnect("127.0.0.1", port, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(writeFrame(fd, "{\"format\": \"wrong-1\"}"));
    reply = readFrame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("\"error\""), std::string::npos) << *reply;
    ::close(fd);

    const std::string spec = writeSpec(dir);
    ToolRun good = runTool({"submit", spec, "--connect",
                            "127.0.0.1:" + std::to_string(port)});
    EXPECT_EQ(good.exit, 0) << good.out;

    serve.kill();
}

/** A raw submit hello carrying `spec`. */
std::string
submitHello(const JsonValue &spec)
{
    JsonValue hello = JsonValue::object();
    hello.set("format", JsonValue::str(kServeFormat));
    hello.set("role", JsonValue::str("submit"));
    hello.set("spec", spec);
    return hello.dump();
}

/** Connect to the daemon with the smallest receive buffer allowed. */
int
connectSmallWindow(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    const int tiny = 1; // the kernel rounds up to its minimum
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

TEST(Serve, StalledReaderIsDroppedNotTheDaemon)
{
    TempDir dir("serve_stalled");
    const std::string spec = writeSpec(dir);
    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    // 2880 points the journal already holds, with records of ~3 KB
    // each: ~8 MB of frames, more than both ends' socket buffers take,
    // and no simulation time spent.
    std::string ranks;
    for (int r = 1; r <= 48; ++r)
        ranks += (r > 1 ? ", " : "") + std::to_string(r);
    const std::optional<JsonValue> big = parseJson(
        "{\"machine\": \"longs\", \"workloads\": [\"stream\","
        " \"daxpy-acml\", \"dgemm-acml\", \"hpcc-fft\", \"ptrans\","
        " \"hpl\", \"nas-cg-b\", \"nas-ft-b\", \"nas-ep-b\","
        " \"nas-mg-b\"], \"ranks\": [" + ranks +
        "], \"options\": [0, 1, 2, 3, 4, 5]}");
    ASSERT_TRUE(big.has_value());
    std::string error;
    std::optional<SweepPlan> big_plan = SweepPlan::fromJson(*big, &error);
    ASSERT_TRUE(big_plan.has_value()) << error;
    ASSERT_EQ(big_plan->specs().size(), 2880u);
    const std::string journal = dir.file("serve.journal");
    {
        RunResult fat;
        fat.valid = true;
        fat.seconds = 1.0;
        for (int tag = 0; tag < 100; ++tag)
            fat.taggedSeconds[tag] = 1.0 / (tag + 3);
        ResultCache store(std::make_unique<SweepJournal>(
            journal, SweepJournal::Sync::None));
        for (uint64_t digest : big_plan->digests())
            store.store(digest, fat);
    }

    BackgroundTool serve({"serve", "--port", "0", "--shards", "1",
                          "--journal", journal, "--max-batches", "2"});
    ASSERT_TRUE(serve.waitForOutput("listening on", 30000))
        << serve.out();
    const int port = listeningPort(serve.out());
    ASSERT_GT(port, 0) << serve.out();

    // The stalled submitter sends its hello and never reads.  Its
    // batch still completes: the daemon queues the records instead of
    // blocking on the full socket.
    const int stalled = connectSmallWindow(port);
    ASSERT_GE(stalled, 0);
    ASSERT_TRUE(writeFrame(stalled, submitHello(*big)));
    ASSERT_TRUE(serve.waitForOutput("serve: batch 1:", 30000))
        << "the stalled reader's batch never finished: " << serve.out();

    // A well-behaved submitter behind it is served in full, at once.
    const auto started = std::chrono::steady_clock::now();
    ToolRun next = runTool({"submit", spec, "--connect",
                            "127.0.0.1:" + std::to_string(port), "--csv"});
    const auto elapsed = std::chrono::steady_clock::now() - started;
    ASSERT_EQ(next.exit, 0) << next.out;
    EXPECT_EQ(next.out, golden.out);
    EXPECT_LT(elapsed, std::chrono::seconds(10 * kTimingScale));

    // The daemon waits for no reader forever: it drops the stalled one
    // at the stall deadline and exits after its two batches.
    ToolRun served = serve.wait();
    EXPECT_EQ(served.exit, 0) << served.out;
    ::close(stalled);
}

TEST(Serve, OversizedSpecGetsErrorFrame)
{
    TempDir dir("serve_oversized");
    const std::string spec = writeSpec(dir);
    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    // ~25 KB of JSON naming 10^12 points: 1000 machine variants x 1000
    // workloads x 1000 rank counts x 1000 options.
    std::string text = "{\"machine\": \"dmz\", \"directory_entries\": [";
    auto list = [&](const std::string &item) {
        for (int i = 0; i < 1000; ++i)
            text += (i ? ", " : "") + item;
    };
    list("2");
    text += "], \"workloads\": [";
    list("\"nas-ep-b\"");
    text += "], \"ranks\": [";
    list("2");
    text += "], \"options\": [";
    list("0");
    text += "]}";
    const std::string oversized = dir.file("oversized.json");
    std::ofstream(oversized) << text;

    // Both local parsers refuse it with the usual error.
    ToolRun batch = runTool({"batch", oversized, "--csv"});
    EXPECT_EQ(batch.exit, 2);
    EXPECT_NE(batch.out.find("grid points"), std::string::npos)
        << batch.out;

    BackgroundTool serve({"serve", "--port", "0", "--shards", "1",
                          "--max-batches", "1"});
    ASSERT_TRUE(serve.waitForOutput("listening on", 30000))
        << serve.out();
    const int port = listeningPort(serve.out());
    ASSERT_GT(port, 0) << serve.out();
    const std::string addr = "127.0.0.1:" + std::to_string(port);

    ToolRun submit = runTool({"submit", oversized, "--connect", addr});
    EXPECT_EQ(submit.exit, 2);
    EXPECT_NE(submit.out.find("grid points"), std::string::npos)
        << submit.out;

    // A hand-rolled client gets the daemon's error frame and a close.
    std::string error;
    const int fd = tcpConnect("127.0.0.1", port, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(writeFrame(fd, submitHello(*parseJson(text))));
    std::optional<std::string> reply = readFrame(fd);
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("\"error\""), std::string::npos) << *reply;
    EXPECT_NE(reply->find("grid points"), std::string::npos) << *reply;
    bool eof = false;
    EXPECT_FALSE(readFrame(fd, &eof).has_value());
    EXPECT_TRUE(eof) << "daemon must close after the error frame";
    ::close(fd);

    // The daemon then serves a valid batch as usual.
    ToolRun good = runTool({"submit", spec, "--connect", addr, "--csv"});
    ASSERT_EQ(good.exit, 0) << good.out;
    EXPECT_EQ(good.out, golden.out);
    EXPECT_EQ(serve.wait().exit, 0);
}

TEST(Serve, JournaledResubmitsDoNotWaitOnTimers)
{
    TempDir dir("serve_resubmit_timers");
    const std::string spec = writeSpec(dir);
    ToolRun golden = runTool({"batch", spec, "--csv"});
    ASSERT_EQ(golden.exit, 0) << golden.out;

    constexpr int kResubmits = 20;
    BackgroundTool serve({"serve", "--port", "0", "--shards", "1",
                          "--journal", dir.file("serve.journal"),
                          "--max-batches",
                          std::to_string(kResubmits + 1)});
    ASSERT_TRUE(serve.waitForOutput("listening on", 30000))
        << serve.out();
    SubmitOptions opts;
    opts.port = listeningPort(serve.out());
    ASSERT_GT(opts.port, 0) << serve.out();
    opts.specPath = spec;
    opts.csv = true;

    std::ostringstream first;
    ASSERT_EQ(runSubmit(opts, first), 0) << first.str();
    EXPECT_EQ(first.str(), golden.out);

    // Every point of a resubmission is a dedup hit, so nothing but
    // frames stands between the hello and the done frame.  A daemon
    // that sleeps a fixed 10 ms or 20 ms per batch needs >= 600 ms for
    // these twenty; one that wakes on readiness needs a few ms each.
    const auto started = std::chrono::steady_clock::now();
    for (int i = 0; i < kResubmits; ++i) {
        std::ostringstream again;
        ASSERT_EQ(runSubmit(opts, again), 0) << again.str();
        EXPECT_EQ(again.str(), golden.out);
    }
    const auto elapsed = std::chrono::steady_clock::now() - started;
    EXPECT_LE(elapsed, std::chrono::milliseconds(300 * kTimingScale))
        << std::chrono::duration<double, std::milli>(elapsed).count()
        << " ms for " << kResubmits << " journaled resubmissions";
    EXPECT_EQ(serve.wait().exit, 0);
}

} // namespace
