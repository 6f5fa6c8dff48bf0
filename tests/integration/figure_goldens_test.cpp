/**
 * @file
 * The paper's figures, the extensions that are not sweeps and the
 * mechanism ablation as checked data.  Each of those programs
 * (bench/fig*, bench/ext_*, bench/ablation_*) is deterministic, and
 * its stdout is recorded in tests/golden/figures/<program>.txt.  One
 * case per program runs the built binary and compares its stdout with
 * the golden line by line, so a model change that moves any printed
 * figure value fails a test named after the program.  To re-record a
 * golden after an intended model change:
 *
 *     build/bench/<program> > tests/golden/figures/<program>.txt
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include <poll.h>

#include "util/fdio.hh"
#include "util/str.hh"
#include "util/subprocess.hh"

namespace mcscope {
namespace {

/** The figure, extension and ablation programs, as CMake lists them. */
std::vector<std::string>
programs()
{
    return split(MCSCOPE_FIGURE_PROGRAMS, ',');
}

class FigureGoldens : public ::testing::TestWithParam<std::string>
{};

TEST_P(FigureGoldens, StdoutMatchesGolden)
{
    const std::string &name = GetParam();
    const std::string golden = "tests/golden/figures/" + name + ".txt";
    std::string want;
    ASSERT_TRUE(readWholeFile(
        std::string(MCSCOPE_SOURCE_DIR) + "/" + golden, want))
        << name << ": cannot read " << golden;

    Subprocess proc({std::string(MCSCOPE_BENCH_DIR) + "/" + name}, "");
    std::string got;
    while (proc.readAvailable(got)) {
        struct pollfd pfd = {proc.outFd(), POLLIN, 0};
        ::poll(&pfd, 1, 50);
    }
    proc.wait();
    ASSERT_EQ(proc.exitCode(), 0) << name << " failed";

    const std::vector<std::string> got_lines = split(got, '\n');
    const std::vector<std::string> want_lines = split(want, '\n');
    for (size_t i = 0;
         i < std::max(got_lines.size(), want_lines.size()); ++i) {
        const std::string g = i < got_lines.size() ? got_lines[i] : "<none>";
        const std::string w =
            i < want_lines.size() ? want_lines[i] : "<none>";
        ASSERT_EQ(g, w) << name << ": line " << i + 1 << " of " << golden
                        << " differs";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Figures, FigureGoldens, ::testing::ValuesIn(programs()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

} // namespace
} // namespace mcscope
