/**
 * @file
 * End-to-end tests for mcscope-lint (tools/lint/mcscope_lint.cc).
 *
 * Each rule gets a fixture snippet that must trigger it and a
 * near-miss that must not; fixtures are written to a temp tree at run
 * time (never checked in as .cc files, which would trip the linter's
 * own scan of tests/) under the src/... subpaths the path-scoped
 * rules look for.  The suite also proves the MCSCOPE_LINT_ALLOW
 * escape and the baseline file suppress findings, and -- the
 * important one -- that the live tree lints clean with the shipped
 * (empty) baseline, which is what keeps the CI lint job green.
 *
 * MCSCOPE_LINT_PATH and MCSCOPE_SOURCE_DIR are injected by
 * tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "util/subprocess.hh"

namespace mcscope {
namespace {

class TempTree
{
  public:
    explicit TempTree(const std::string &tag)
    {
        path_ = (std::filesystem::temp_directory_path() /
                 ("mcscope_lint_" + tag + "_" +
                  std::to_string(static_cast<unsigned>(getpid()))))
                    .string();
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~TempTree() { std::filesystem::remove_all(path_); }

    /** Write `content` at `rel` (creating directories); returns path. */
    std::string
    write(const std::string &rel, const std::string &content) const
    {
        const std::string full = path_ + "/" + rel;
        std::filesystem::create_directories(
            std::filesystem::path(full).parent_path());
        std::ofstream out(full);
        out << content;
        return full;
    }

    const std::string &root() const { return path_; }

  private:
    std::string path_;
};

struct LintRun
{
    int exit = -1;
    std::string out;
};

/** Run mcscope-lint to completion, capturing stdout. */
LintRun
runLint(const std::vector<std::string> &args)
{
    std::vector<std::string> argv{MCSCOPE_LINT_PATH};
    argv.insert(argv.end(), args.begin(), args.end());
    Subprocess proc(argv, /*stdin_data=*/"");
    LintRun run;
    while (proc.readAvailable(run.out)) {
        struct pollfd pfd = {proc.outFd(), POLLIN, 0};
        if (pfd.fd >= 0)
            ::poll(&pfd, 1, 50);
    }
    proc.wait();
    run.exit = proc.exitCode();
    return run;
}

size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(Lint, Det1FlagsRandAndWallClockSeed)
{
    TempTree t("det1");
    t.write("src/sim/fixture.cc", R"lint(
#include <cstdlib>
#include <ctime>
int f()
{
    srand(time(NULL));
    return rand();
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    // srand, time(NULL), and rand are three distinct findings.
    EXPECT_EQ(countOccurrences(run.out, "DET-1"), 3u) << run.out;
}

TEST(Lint, Det1IgnoresOtherDirsAndMemberCalls)
{
    TempTree t("det1ok");
    // rand() is only banned under src/sim, src/core, src/kernels.
    t.write("tools/fixture.cc", R"lint(
#include <cstdlib>
int f() { return rand(); }
)lint");
    // Member calls named like banned functions are not libc calls.
    // (Qualified calls stay flagged -- std::rand() must not slip
    // through -- so only the . / -> access paths are exempt.)
    t.write("src/sim/member.cc", R"lint(
#include "sim/gen.hh"
int g(Gen &gen) { return gen.rand(); }
int h(Gen *gen) { return gen->rand(); }
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;
}

TEST(Lint, Det2FlagsUnorderedIteration)
{
    TempTree t("det2");
    t.write("src/core/journal_fixture.cc", R"lint(
#include <unordered_map>
int sum()
{
    std::unordered_map<int, int> m;
    int s = 0;
    for (const auto &kv : m)
        s += kv.second;
    for (auto it = m.begin(); it != m.end(); ++it)
        s += it->second;
    return s;
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    EXPECT_EQ(countOccurrences(run.out, "DET-2"), 2u) << run.out;
}

TEST(Lint, Det2CoversCoherenceUnit)
{
    // Coherence flow emission feeds audit digests, so the coherence
    // unit is on the DET-2 ordered-output list.
    TempTree t("det2coh");
    t.write("src/machine/coherence_fixture.cc", R"lint(
#include <unordered_map>
int sum()
{
    std::unordered_map<int, int> m;
    int s = 0;
    for (const auto &kv : m)
        s += kv.second;
    return s;
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    EXPECT_EQ(countOccurrences(run.out, "DET-2"), 1u) << run.out;
}

TEST(Lint, Det2CoversMachineRegistryUnits)
{
    // Registry listings feed sweep expansions and CLI output, so the
    // registry and serialization units are DET-2 ordered-output code.
    TempTree t("det2reg");
    t.write("src/machine/registry_fixture.cc", R"lint(
#include <unordered_map>
int sum()
{
    std::unordered_map<int, int> m;
    int s = 0;
    for (const auto &kv : m)
        s += kv.second;
    return s;
}
)lint");
    t.write("src/machine/serialize_fixture.cc", R"lint(
#include <unordered_set>
int count()
{
    std::unordered_set<int> keys;
    int n = 0;
    for (int k : keys)
        n += k;
    return n;
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    EXPECT_EQ(countOccurrences(run.out, "DET-2"), 2u) << run.out;
}

TEST(Lint, Parse1CoversRegistryNumericParsing)
{
    // A registry-style numeric field parser that drops errno/endptr
    // checking must be flagged; the checked form must pass.  This
    // pins PARSE-1 coverage over src/machine numeric parsing.
    TempTree t("parse1reg");
    t.write("src/machine/registry_parse.cc", R"lint(
#include <cstdlib>
double field(const char *s)
{
    return strtod(s, nullptr);
}
)lint");
    LintRun bad = runLint({t.root()});
    EXPECT_EQ(bad.exit, 1) << bad.out;
    EXPECT_EQ(countOccurrences(bad.out, "PARSE-1"), 1u) << bad.out;

    TempTree ok("parse1regok");
    ok.write("src/machine/registry_parse.cc", R"lint(
#include <cerrno>
#include <cstdlib>
double field(const char *s, bool *valid)
{
    errno = 0;
    char *end = nullptr;
    double v = strtod(s, &end);
    *valid = errno != ERANGE && end != s && *end == '\0';
    return v;
}
)lint");
    LintRun good = runLint({ok.root()});
    EXPECT_EQ(good.exit, 0) << good.out;
}

TEST(Lint, Det2AllowsLookupOnlyUse)
{
    TempTree t("det2ok");
    t.write("src/core/journal_fixture.cc", R"lint(
#include <unordered_map>
int lookup(int key)
{
    std::unordered_map<int, int> m;
    auto it = m.find(key);
    return it == m.end() ? -1 : it->second;
}
)lint");
    // Iteration outside the ordered-output units is also fine.
    t.write("src/sim/elsewhere.cc", R"lint(
#include <unordered_map>
int sum(std::unordered_map<int, int> &m)
{
    int s = 0;
    for (const auto &kv : m)
        s += kv.second;
    return s;
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;
}

TEST(Lint, Hot1FlagsAllocationInMarkedRegion)
{
    TempTree t("hot1");
    t.write("src/sim/loop.cc", R"lint(
#include <string>
#include <vector>
void hot(std::vector<int> &v)
{
    // MCSCOPE_HOT_BEGIN
    int *p = new int(3);
    delete p;
    std::string label = "x";
    v.push_back(1);
    // MCSCOPE_HOT_END
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    EXPECT_EQ(countOccurrences(run.out, "HOT-1"), 4u) << run.out;
}

TEST(Lint, Hot1ExemptsSmallVecAndCodeOutsideRegion)
{
    TempTree t("hot1ok");
    t.write("src/sim/loop.cc", R"lint(
#include <vector>
#include "util/smallvec.hh"
void warmup(std::vector<int> &v)
{
    v.push_back(0); // no region here: unconstrained
    int *p = new int(1);
    delete p;
}
void hot(mcscope::SmallVec<int, 4> &owners)
{
    // MCSCOPE_HOT_BEGIN
    owners.push_back(2);
    // MCSCOPE_HOT_END
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;
}

TEST(Lint, Hot1FlagsUnmatchedMarker)
{
    TempTree t("hot1marker");
    t.write("src/sim/loop.cc", R"lint(
void f()
{
    // MCSCOPE_HOT_BEGIN
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    EXPECT_NE(run.out.find("never closed"), std::string::npos)
        << run.out;
}

TEST(Lint, Hot2FlagsEngineUnitWithoutMarkers)
{
    TempTree t("hot2");
    // The designated steady-state units must carry hot regions; a
    // marker-free engine.cc is exactly the rot HOT-2 exists to catch.
    t.write("src/sim/engine.cc", R"lint(
void run()
{
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    EXPECT_EQ(countOccurrences(run.out, "HOT-2"), 1u) << run.out;
}

TEST(Lint, Hot2AcceptsEngineUnitWithMarkersAndIgnoresOtherFiles)
{
    TempTree t("hot2ok");
    t.write("src/sim/engine.cc", R"lint(
void run()
{
    // MCSCOPE_HOT_BEGIN: steady-state loop
    int x = 0;
    (void)x;
    // MCSCOPE_HOT_END
}
)lint");
    // A different sim unit without markers is fine.
    t.write("src/sim/other.cc", R"lint(
void helper()
{
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;
}

TEST(Lint, Fd1FlagsCloexecAndSpawnViolations)
{
    TempTree t("fd1");
    t.write("src/util/other.cc", R"lint(
#include <fcntl.h>
#include <unistd.h>
int bad(const char *p) { return open(p, O_RDONLY); }
int worse(char *tmpl) { return mkstemp(tmpl); }
int spawn() { return fork(); }
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    EXPECT_EQ(countOccurrences(run.out, "FD-1"), 3u) << run.out;
}

TEST(Lint, Fd1AcceptsCloexecAndSubprocessUnit)
{
    TempTree t("fd1ok");
    t.write("src/util/other.cc", R"lint(
#include <fcntl.h>
int good(const char *p) { return open(p, O_RDONLY | O_CLOEXEC); }
int tmp(char *tmpl) { return mkostemp(tmpl, O_CLOEXEC); }
)lint");
    // fork/exec are allowed only in the Subprocess wrapper.
    t.write("src/util/subprocess.cc", R"lint(
#include <unistd.h>
int spawn() { return fork(); }
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;
}

TEST(Lint, Fd1FlagsSocketsWithoutCloexec)
{
    TempTree t("fd1sock");
    t.write("src/util/net.cc", R"lint(
#include <sys/socket.h>
int listener() { return socket(AF_INET, SOCK_STREAM, 0); }
int peer(int fd) { return accept4(fd, nullptr, nullptr, 0); }
int legacy(int fd) { return accept(fd, nullptr, nullptr); }
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    // socket() and accept4() lack SOCK_CLOEXEC; accept() can never
    // set it atomically, so it is flagged unconditionally.
    EXPECT_EQ(countOccurrences(run.out, "FD-1"), 3u) << run.out;
    EXPECT_NE(run.out.find("SOCK_CLOEXEC"), std::string::npos)
        << run.out;
    EXPECT_NE(run.out.find("accept4"), std::string::npos) << run.out;
}

TEST(Lint, Fd1AcceptsCloexecSockets)
{
    TempTree t("fd1sockok");
    t.write("src/util/net.cc", R"lint(
#include <sys/socket.h>
int listener()
{
    return socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
}
int peer(int fd)
{
    return accept4(fd, nullptr, nullptr, SOCK_CLOEXEC);
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;
}

TEST(Lint, Parse1FlagsUncheckedStrtol)
{
    TempTree t("parse1");
    t.write("src/core/num.cc", R"lint(
#include <cstdlib>
long bad(const char *s)
{
    return std::strtol(s, nullptr, 10);
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 1) << run.out;
    EXPECT_EQ(countOccurrences(run.out, "PARSE-1"), 1u) << run.out;
}

TEST(Lint, Parse1AcceptsEndPointerOrErrnoChecks)
{
    TempTree t("parse1ok");
    t.write("src/core/num.cc", R"lint(
#include <cerrno>
#include <cstdlib>
long viaEnd(const char *s)
{
    char *end = nullptr;
    long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0')
        return -1;
    return v;
}
double viaErrno(const char *s)
{
    errno = 0;
    double v = std::strtod(s, nullptr);
    if (errno == ERANGE)
        return -1.0;
    return v;
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;
}

TEST(Lint, AllowMarkerSuppressesFinding)
{
    TempTree t("allow");
    t.write("src/sim/fixture.cc", R"lint(
#include <cstdlib>
int f()
{
    return rand(); // MCSCOPE_LINT_ALLOW(DET-1): fixture escape test
}
int g()
{
    // MCSCOPE_LINT_ALLOW(DET-1): line-above form
    return rand();
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;
}

TEST(Lint, BaselineSuppressesListedFinding)
{
    TempTree t("baseline");
    const std::string fixture =
        t.write("src/sim/fixture.cc", "int f()\n"
                                      "{\n"
                                      "    return rand();\n"
                                      "}\n");
    const std::string baseline =
        t.write("baseline.txt",
                "# accepted legacy finding\n" + fixture +
                    ":3:DET-1\n");
    LintRun run = runLint({"--baseline", baseline, t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;

    // Without the baseline the same tree must fail.
    LintRun bare = runLint({t.root()});
    EXPECT_EQ(bare.exit, 1) << bare.out;
}

TEST(Lint, MarkersAndKeywordsInsideLiteralsAreIgnored)
{
    TempTree t("literals");
    t.write("src/sim/strings.cc", R"lint(
const char *doc()
{
    return "call rand() between // MCSCOPE_HOT_BEGIN and new things";
}
)lint");
    LintRun run = runLint({t.root()});
    EXPECT_EQ(run.exit, 0) << run.out;
}

TEST(Lint, ListRulesPrintsCatalog)
{
    LintRun run = runLint({"--list-rules"});
    EXPECT_EQ(run.exit, 0) << run.out;
    for (const char *rule :
         {"DET-1", "DET-2", "HOT-1", "FD-1", "PARSE-1"})
        EXPECT_NE(run.out.find(rule), std::string::npos) << rule;
}

TEST(Lint, UsageErrorsExitTwo)
{
    EXPECT_EQ(runLint({}).exit, 2);
    EXPECT_EQ(runLint({"--no-such-flag", "src"}).exit, 2);
    EXPECT_EQ(runLint({"/no/such/path/anywhere"}).exit, 2);
}

/**
 * The contract the CI lint job enforces: the shipped tree, with the
 * shipped (empty) baseline, has zero findings.
 */
TEST(Lint, LiveTreeIsCleanWithShippedBaseline)
{
    const std::string src = MCSCOPE_SOURCE_DIR;
    LintRun run = runLint(
        {"--baseline", src + "/tools/lint/lint_baseline.txt",
         src + "/src", src + "/tests", src + "/bench",
         src + "/tools"});
    EXPECT_EQ(run.exit, 0) << run.out;
    EXPECT_NE(run.out.find("clean"), std::string::npos) << run.out;
}

} // namespace
} // namespace mcscope
