/**
 * @file
 * The paper's tables as checked data.  Every table, and the NPB
 * extension, is a batch spec (examples/paper/, plus
 * examples/batch_table02.json for Table 2) with a recorded CSV; the
 * 2006 zoo spec has one too.  One case per artifact runs its spec in
 * process, exactly as `mcscope batch --csv` does, and compares the CSV
 * with its golden line by line, so a model change that moves any
 * published cell fails a test named after the artifact.
 *
 * A second suite checks the paper's shape claims
 * (tests/integration/paper_claims.json), each against the number the
 * repo prints.  A claim must fall inside its band, and the band must
 * hold the paper's value (`"paper": null` where the paper prints
 * none).  A table claim names a `"spec"` and is the ratio of two
 * cells of its CSV.  A figure claim names a `"figure"` program and
 * reads its stdout golden (tests/golden/figures/<program>.txt, which
 * figure_goldens_test pins to the program), without running it:
 *
 *     {"id": "fig02_dmz_single_core", "figure": "fig02_stream_bandwidth",
 *      "what": "...", "num": {"row": "-> DMZ single-core GB/s:", "field": 0},
 *      "band": [2.73, 4.1], "paper": null}
 *
 * `row` is a line's leading tokens with whitespace collapsed (see
 * findRow) and `field` counts the numeric tokens after it, rank
 * labels such as "8:" included.  With a
 * `"den"` of the same form the claim is num/den; without, the value
 * itself.  Every "  -> " observation line of a figure golden must be
 * read by some figure claim (EveryObservationIsClaimed), so a new
 * observation needs a claim in the same change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
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

/**
 * One value of a figure golden: the `field`-th numeric token after
 * the row label `row` (see findRow and numericField).
 */
struct Row
{
    std::string label;
    int field = 0;
};

/**
 * A table claim: the ratio num/den of two cells of the `spec`
 * artifact's CSV.  A figure claim: the ratio of two values of the
 * `figure` program's golden, or the value `numRow` alone when it has
 * no `den`.  Either must lie in [lo, hi].
 */
struct Claim
{
    std::string id;
    std::string spec;
    std::string figure;
    std::string what;
    Cell num;
    Cell den;
    Row numRow;
    std::optional<Row> denRow;
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

std::optional<Row>
parseRow(const JsonValue *v)
{
    if (!v || !v->isObject())
        return std::nullopt;
    const JsonValue *row = v->find("row");
    const JsonValue *field = v->find("field");
    if (!row || !row->isString() || !field || !jsonInteger<int>(*field) ||
        *jsonInteger<int>(*field) < 0)
        return std::nullopt;
    return Row{row->asString(), *jsonInteger<int>(*field)};
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
        c.figure = str("figure");
        c.what = str("what");
        bool picks = false; ///< num and den parse for the claim's kind
        if (c.figure.empty()) {
            std::optional<Cell> num = parseCell(entry.find("num"));
            std::optional<Cell> den = parseCell(entry.find("den"));
            picks = num && den;
            if (picks) {
                c.num = *num;
                c.den = *den;
            }
        } else {
            std::optional<Row> num = parseRow(entry.find("num"));
            const JsonValue *den = entry.find("den");
            c.denRow = parseRow(den);
            picks = c.spec.empty() && num && (!den || c.denRow);
            if (num)
                c.numRow = *num;
        }
        const JsonValue *band = entry.find("band");
        const JsonValue *paper = entry.find("paper");
        if (c.id.empty() || (c.spec.empty() && c.figure.empty()) ||
            !picks || !band || !band->isArray() ||
            band->items().size() != 2 || !band->items()[0].isNumber() ||
            !band->items()[1].isNumber() || !paper ||
            !(paper->isNumber() || paper->isNull()))
            return broken("malformed claim #" +
                          std::to_string(out.size()));
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

using Tokens = std::vector<std::string>;

Tokens
tokens(const std::string &text)
{
    std::istringstream in(text);
    Tokens out;
    for (std::string t; in >> t;)
        out.push_back(t);
    return out;
}

std::string
figureGolden(const std::string &program)
{
    return "tests/golden/figures/" + program + ".txt";
}

/** Each line of a golden, split at whitespace. */
std::vector<Tokens>
tokenLines(const std::string &text)
{
    std::vector<Tokens> lines;
    for (const std::string &line : split(text, '\n'))
        lines.push_back(tokens(line));
    return lines;
}

/** The line a row label names, and the tokens after the label. */
struct RowMatch
{
    size_t line = 0;
    Tokens rest;
};

/**
 * A row label, split at whitespace, matches a line whose tokens it
 * begins.  It also matches a line whose paragraph head (the first
 * line after a blank one) it covers, followed by a prefix of the
 * line's own tokens: the ablation prints a `with:` row under two
 * headers, and a label names one of them with its header in front.
 * Sets `error` unless exactly one line matches.
 */
std::optional<RowMatch>
findRow(const std::vector<Tokens> &lines, const std::string &label,
        std::string *error)
{
    const Tokens want = tokens(label);
    auto begins = [&](const Tokens &have) {
        return have.size() >= want.size() &&
               std::equal(want.begin(), want.end(), have.begin());
    };
    std::vector<RowMatch> hits;
    size_t head = 0;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (lines[i].empty()) {
            head = i + 1;
            continue;
        }
        Tokens qualified;
        if (i != head && want.size() > lines[head].size()) {
            qualified = lines[head];
            qualified.insert(qualified.end(), lines[i].begin(),
                             lines[i].end());
        }
        const Tokens *forms[] = {&lines[i], &qualified};
        for (const Tokens *have : forms) {
            if (begins(*have)) {
                hits.push_back(
                    {i, Tokens(have->begin() + want.size(), have->end())});
                break;
            }
        }
    }
    if (hits.size() != 1) {
        *error = "row '" + label + "' matches " +
                 std::to_string(hits.size()) + " lines";
        return std::nullopt;
    }
    return hits[0];
}

/**
 * The `field`-th numeric token of `rest`: one that strtod reads a
 * finite prefix of, so "1.23us", "9.71x" and "12.1%" all count.
 */
std::optional<double>
numericField(const Tokens &rest, int field)
{
    int seen = 0;
    for (const std::string &t : rest) {
        char *end = nullptr;
        const double v = std::strtod(t.c_str(), &end);
        if (end != t.c_str() && std::isfinite(v) && seen++ == field)
            return v;
    }
    return std::nullopt;
}

std::optional<double>
figureValue(const std::vector<Tokens> &lines, const Row &row,
            std::string *error)
{
    std::optional<RowMatch> match = findRow(lines, row.label, error);
    if (!match)
        return std::nullopt;
    std::optional<double> v = numericField(match->rest, row.field);
    if (!v)
        *error = "row '" + row.label + "' has no numeric field " +
                 std::to_string(row.field);
    return v;
}

/** A claim's ratio, or its value when it has no `den`; sets `error`. */
std::optional<double>
claimValue(const Claim &c, std::string *error)
{
    std::optional<double> num, den = 1.0;
    if (!c.figure.empty()) {
        std::string text;
        if (!readWholeFile(sourcePath(figureGolden(c.figure)), text)) {
            *error = "cannot read " + figureGolden(c.figure);
            return std::nullopt;
        }
        const std::vector<Tokens> lines = tokenLines(text);
        num = figureValue(lines, c.numRow, error);
        if (num && c.denRow)
            den = figureValue(lines, *c.denRow, error);
    } else {
        std::vector<Artifact> all = artifacts();
        auto a = std::find_if(
            all.begin(), all.end(),
            [&](const Artifact &x) { return x.name == c.spec; });
        if (a == all.end()) {
            *error = "no artifact '" + c.spec + "'";
            return std::nullopt;
        }
        const std::string &csv = renderedCsv(*a, error);
        if (!error->empty())
            return std::nullopt;
        num = lookup(csv, c.num);
        den = lookup(csv, c.den);
        if (!num || !den)
            *error = "a cell is missing from " + c.spec;
    }
    if (!num || !den)
        return std::nullopt;
    if (*den <= 0.0) {
        *error = "the denominator is not positive";
        return std::nullopt;
    }
    return *num / *den;
}

void
PrintTo(const Claim &c, std::ostream *os)
{
    *os << c.spec << c.figure;
}

class PaperClaims : public ::testing::TestWithParam<Claim>
{};

TEST_P(PaperClaims, RatioInsideBand)
{
    const Claim &c = GetParam();
    ASSERT_TRUE(c.error.empty()) << c.error;
    std::string error;
    std::optional<double> value = claimValue(c, &error);
    ASSERT_TRUE(value) << c.id << " (" << c.spec << c.figure
                       << "): " << error;
    std::ostringstream paper;
    if (c.paper)
        paper << *c.paper;
    else
        paper << "n/a";
    EXPECT_GE(*value, c.lo) << c.id << " (" << c.spec << c.figure
                            << "): " << c.what << "; paper "
                            << paper.str();
    EXPECT_LE(*value, c.hi) << c.id << " (" << c.spec << c.figure
                            << "): " << c.what << "; paper "
                            << paper.str();
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

/**
 * Every observation a figure program prints (a "  -> " line of its
 * golden) is a row some figure claim reads, so no program can print
 * a conclusion that nothing checks.
 */
TEST(PaperClaims, EveryObservationIsClaimed)
{
    const std::vector<Claim> all = claims();
    ASSERT_TRUE(all.empty() || all[0].error.empty()) << all[0].error;
    std::vector<std::string> programs;
    for (const auto &e : std::filesystem::directory_iterator(
             sourcePath("tests/golden/figures"))) {
        if (e.path().extension() == ".txt")
            programs.push_back(e.path().stem().string());
    }
    std::sort(programs.begin(), programs.end());
    ASSERT_FALSE(programs.empty());
    for (const std::string &program : programs) {
        std::string text;
        ASSERT_TRUE(readWholeFile(sourcePath(figureGolden(program)), text));
        const std::vector<Tokens> lines = tokenLines(text);
        std::set<size_t> read;
        auto mark = [&](const Row &row) {
            std::string error;
            if (std::optional<RowMatch> m = findRow(lines, row.label, &error))
                read.insert(m->line);
        };
        for (const Claim &c : all) {
            if (c.figure != program)
                continue;
            mark(c.numRow);
            if (c.denRow)
                mark(*c.denRow);
        }
        const std::vector<std::string> raw = split(text, '\n');
        for (size_t i = 0; i < raw.size(); ++i) {
            if (raw[i].rfind("  -> ", 0) == 0 && !read.count(i))
                ADD_FAILURE() << figureGolden(program) << ":" << i + 1
                              << ": no figure claim reads '" << raw[i]
                              << "'";
        }
    }
}

} // namespace
} // namespace mcscope
