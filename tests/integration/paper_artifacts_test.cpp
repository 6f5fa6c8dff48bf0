/**
 * @file
 * The paper's tables as checked data.  Every table, and the NPB
 * extension, is a batch spec (examples/paper/, plus
 * examples/batch_table02.json for Table 2) with a recorded CSV; the
 * 2006 zoo spec has one too.  One case per artifact runs its spec in
 * process, exactly as `mcscope batch --csv` does, and compares the CSV
 * with its golden line by line, so a model change that moves any
 * published cell fails a test named after the artifact.  A second
 * suite checks the paper's shape claims
 * (tests/integration/paper_claims.json): each is the ratio of two
 * named cells of one artifact, which must fall inside a band that
 * holds the paper's value (`"paper": null` where the paper prints
 * none, as for the extension).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <sstream>

#include "core/plan.hh"
#include "core/report.hh"
#include "core/runner.hh"
#include "util/fdio.hh"
#include "util/json.hh"
#include "util/str.hh"

namespace mcscope {
namespace {

/** One spec file and the CSV it must reproduce, both repo-relative. */
struct Artifact
{
    std::string name;
    std::string spec;
    std::string golden;
};

std::string
sourcePath(const std::string &relative)
{
    return std::string(MCSCOPE_SOURCE_DIR) + "/" + relative;
}

/** Table 2 and the 2006 zoo, then every spec under examples/paper/. */
std::vector<Artifact>
artifacts()
{
    std::vector<Artifact> out = {
        {"table02_nas_longs", "examples/batch_table02.json",
         "tests/golden/batch_table02_legacy.csv"},
        {"batch_zoo_2006", "examples/batch_zoo_2006.json",
         "tests/golden/batch_zoo_2006.csv"},
    };
    std::vector<std::string> stems;
    for (const auto &e : std::filesystem::directory_iterator(
             sourcePath("examples/paper"))) {
        if (e.path().extension() == ".json")
            stems.push_back(e.path().stem().string());
    }
    std::sort(stems.begin(), stems.end());
    for (const std::string &stem : stems) {
        out.push_back({stem, "examples/paper/" + stem + ".json",
                       "tests/golden/paper/" + stem + ".csv"});
    }
    return out;
}

/**
 * `mcscope batch <spec> --csv` of one artifact, run in process with
 * its own cache and rendered once per test process.  Sets `error`
 * (and returns "") when the spec does not load.
 */
const std::string &
renderedCsv(const Artifact &a, std::string *error)
{
    static std::map<std::string, std::string> rendered;
    if (auto it = rendered.find(a.name); it != rendered.end())
        return it->second;
    static const std::string none;
    std::string text;
    if (!readWholeFile(sourcePath(a.spec), text)) {
        *error = "cannot read " + a.spec;
        return none;
    }
    std::optional<JsonValue> doc = parseJson(text, error);
    std::optional<SweepPlan> plan =
        doc ? SweepPlan::fromJson(*doc, error) : std::nullopt;
    if (!plan)
        return none;
    ResultCache cache;
    RunnerOptions opts;
    opts.cache = &cache;
    std::ostringstream csv;
    renderBatchResults(*plan, runPlan(*plan, opts), true, csv);
    return rendered.emplace(a.name, csv.str()).first->second;
}

void
PrintTo(const Artifact &a, std::ostream *os)
{
    *os << a.spec;
}

class PaperArtifacts : public ::testing::TestWithParam<Artifact>
{};

TEST_P(PaperArtifacts, CsvMatchesGolden)
{
    const Artifact &a = GetParam();
    std::string error;
    const std::string &got = renderedCsv(a, &error);
    ASSERT_TRUE(error.empty()) << a.name << ": " << error;
    std::string want;
    ASSERT_TRUE(readWholeFile(sourcePath(a.golden), want))
        << a.name << ": cannot read " << a.golden;

    const std::vector<std::string> got_lines = split(got, '\n');
    const std::vector<std::string> want_lines = split(want, '\n');
    for (size_t i = 0;
         i < std::max(got_lines.size(), want_lines.size()); ++i) {
        const std::string g = i < got_lines.size() ? got_lines[i] : "<none>";
        const std::string w =
            i < want_lines.size() ? want_lines[i] : "<none>";
        ASSERT_EQ(g, w) << a.name << ": line " << i + 1 << " of "
                        << a.golden << " differs";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperArtifacts, ::testing::ValuesIn(artifacts()),
    [](const ::testing::TestParamInfo<Artifact> &info) {
        return info.param.name;
    });

/** One cell of an artifact's CSV: row coordinates plus option column. */
struct Cell
{
    std::string machine;
    std::string workload;
    int ranks = 0;
    std::string option;
};

/** Ratio num/den of two cells of one artifact, held to [lo, hi]. */
struct Claim
{
    std::string id;
    std::string spec;
    std::string what;
    Cell num;
    Cell den;
    double lo = 0.0;
    double hi = 0.0;
    /** The paper's value of the ratio; `null` where it prints none. */
    std::optional<double> paper;
    std::string error; ///< set when the claims file does not parse
};

std::optional<Cell>
parseCell(const JsonValue *v)
{
    if (!v || !v->isObject())
        return std::nullopt;
    const JsonValue *machine = v->find("machine");
    const JsonValue *workload = v->find("workload");
    const JsonValue *ranks = v->find("ranks");
    const JsonValue *option = v->find("option");
    if (!machine || !machine->isString() || !workload ||
        !workload->isString() || !ranks || !jsonInteger<int>(*ranks) ||
        !option || !option->isString())
        return std::nullopt;
    return Cell{machine->asString(), workload->asString(),
                *jsonInteger<int>(*ranks), option->asString()};
}

/** The claims file; one entry carrying `error` if it is malformed. */
std::vector<Claim>
claims()
{
    const std::string file = "tests/integration/paper_claims.json";
    auto broken = [&](const std::string &why) {
        Claim c;
        c.id = "claims_file";
        c.error = file + ": " + why;
        return std::vector<Claim>{c};
    };
    std::string text, error;
    if (!readWholeFile(sourcePath(file), text))
        return broken("cannot read");
    std::optional<JsonValue> doc = parseJson(text, &error);
    if (!doc || !doc->isArray())
        return broken(doc ? "not an array" : error);
    std::vector<Claim> out;
    for (const JsonValue &entry : doc->items()) {
        auto str = [&](const char *key) {
            const JsonValue *v = entry.find(key);
            return v && v->isString() ? v->asString() : "";
        };
        Claim c;
        c.id = str("id");
        c.spec = str("spec");
        c.what = str("what");
        std::optional<Cell> num = parseCell(entry.find("num"));
        std::optional<Cell> den = parseCell(entry.find("den"));
        const JsonValue *band = entry.find("band");
        const JsonValue *paper = entry.find("paper");
        if (c.id.empty() || c.spec.empty() || !num || !den || !band ||
            !band->isArray() || band->items().size() != 2 ||
            !band->items()[0].isNumber() ||
            !band->items()[1].isNumber() || !paper ||
            !(paper->isNumber() || paper->isNull()))
            return broken("malformed claim #" +
                          std::to_string(out.size()));
        c.num = *num;
        c.den = *den;
        c.lo = band->items()[0].asNumber();
        c.hi = band->items()[1].asNumber();
        if (paper->isNumber())
            c.paper = paper->asNumber();
        out.push_back(std::move(c));
    }
    return out;
}

/** Value of `cell` in a rendered CSV; nullopt for a missing or "-" cell. */
std::optional<double>
lookup(const std::string &csv, const Cell &cell)
{
    const std::vector<std::string> lines = split(csv, '\n');
    if (lines.empty())
        return std::nullopt;
    const std::vector<std::string> header = split(lines[0], ',');
    auto column = [&](const std::string &name) {
        return static_cast<size_t>(
            std::find(header.begin(), header.end(), name) -
            header.begin());
    };
    const size_t machine = column("machine");
    const size_t workload = column("workload");
    const size_t ranks = column("ranks");
    const size_t option = column(cell.option);
    if (option >= header.size())
        return std::nullopt;
    for (size_t i = 1; i < lines.size(); ++i) {
        const std::vector<std::string> row = split(lines[i], ',');
        if (row.size() != header.size() || row[machine] != cell.machine ||
            row[workload] != cell.workload ||
            row[ranks] != std::to_string(cell.ranks))
            continue;
        if (row[option].empty())
            return std::nullopt;
        return std::stod(row[option]);
    }
    return std::nullopt;
}

void
PrintTo(const Claim &c, std::ostream *os)
{
    *os << c.spec;
}

class PaperClaims : public ::testing::TestWithParam<Claim>
{};

TEST_P(PaperClaims, RatioInsideBand)
{
    const Claim &c = GetParam();
    ASSERT_TRUE(c.error.empty()) << c.error;
    std::vector<Artifact> all = artifacts();
    auto a = std::find_if(all.begin(), all.end(),
                          [&](const Artifact &x) { return x.name == c.spec; });
    ASSERT_NE(a, all.end()) << c.id << ": no artifact '" << c.spec << "'";
    std::string error;
    const std::string &csv = renderedCsv(*a, &error);
    ASSERT_TRUE(error.empty()) << c.spec << ": " << error;

    std::optional<double> num = lookup(csv, c.num);
    std::optional<double> den = lookup(csv, c.den);
    ASSERT_TRUE(num && den && *den > 0.0)
        << c.id << ": a cell is missing from " << c.spec;
    const double ratio = *num / *den;
    std::ostringstream paper;
    if (c.paper)
        paper << *c.paper;
    else
        paper << "n/a";
    EXPECT_GE(ratio, c.lo) << c.id << " (" << c.spec << "): " << c.what
                           << "; paper " << paper.str();
    EXPECT_LE(ratio, c.hi) << c.id << " (" << c.spec << "): " << c.what
                           << "; paper " << paper.str();
    // The band must hold the paper's value: a model that reproduced
    // the paper exactly has to pass.
    if (c.paper) {
        EXPECT_TRUE(*c.paper >= c.lo && *c.paper <= c.hi)
            << c.id << ": band [" << c.lo << ", " << c.hi
            << "] excludes the paper's " << *c.paper;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperClaims, ::testing::ValuesIn(claims()),
    [](const ::testing::TestParamInfo<Claim> &info) {
        return info.param.id;
    });

} // namespace
} // namespace mcscope
