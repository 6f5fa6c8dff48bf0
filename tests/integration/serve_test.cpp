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
 *    hello deadline while other clients are served normally.
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

#include <poll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/serve.hh"
#include "util/json.hh"
#include "util/subprocess.hh"
#include "util/transport.hh"

using namespace mcscope;

namespace {

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

} // namespace
