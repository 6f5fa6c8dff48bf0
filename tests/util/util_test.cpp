/**
 * @file
 * Unit tests for the utility layer: strings, tables, CSV, RNG.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "util/csv.hh"
#include "util/rng.hh"
#include "util/str.hh"
#include "util/table.hh"

namespace mcscope {
namespace {

TEST(Str, Split)
{
    EXPECT_EQ(split("a,b,c", ','),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(split("a,,c", ','),
              (std::vector<std::string>{"a", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Str, TrimAndLower)
{
    EXPECT_EQ(trim("  hi  "), "hi");
    EXPECT_EQ(trim("\t\nx\r "), "x");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(toLower("LoNgS"), "longs");
}

TEST(Str, Join)
{
    EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
    EXPECT_EQ(join({}, ","), "");
}

TEST(Str, Formatters)
{
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
    EXPECT_EQ(formatBytes(512), "512B");
    EXPECT_EQ(formatBytes(16384), "16KB");
    EXPECT_EQ(formatBytes(1536), "1.5KB");
    EXPECT_EQ(formatBytes(3.0 * 1024 * 1024), "3MB");
}

TEST(Table, RendersAlignedColumns)
{
    TextTable t({"A", "Name"});
    t.addRow({"1", "x"});
    t.addRow({"22", "longer"});
    std::string s = t.str();
    EXPECT_NE(s.find("A  | Name"), std::string::npos);
    EXPECT_NE(s.find("22 | longer"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, SeparatorAndCellHelpers)
{
    TextTable t({"h"});
    t.addRow({"r1"});
    t.addSeparator();
    t.addRow({"r2"});
    EXPECT_EQ(t.rowCount(), 2u);
    EXPECT_EQ(cell(1.23456, 2), "1.23");
    EXPECT_EQ(cell(std::nan("")), "-");
}

TEST(Csv, QuotingRules)
{
    EXPECT_EQ(CsvWriter::quote("plain"), "plain");
    EXPECT_EQ(CsvWriter::quote("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRows)
{
    std::ostringstream oss;
    CsvWriter w(oss);
    w.writeRow({"a", "b,c"});
    w.writeNumericRow({1.5, 2.0});
    EXPECT_EQ(oss.str(), "a,\"b,c\"\n1.5,2\n");
    EXPECT_EQ(w.rowsWritten(), 2u);
}

TEST(Csv, NonFiniteNumbersBecomeEmptyCells)
{
    std::ostringstream oss;
    CsvWriter w(oss);
    const double inf = std::numeric_limits<double>::infinity();
    w.writeNumericRow({std::nan(""), 1.0, inf, -inf});
    w.writeNumericRow({std::nan("")});
    // Bare "nan"/"inf" tokens would poison downstream readers; the
    // cells must be empty instead.
    EXPECT_EQ(oss.str(), ",1,,\n\n");
    EXPECT_EQ(w.rowsWritten(), 2u);
}

TEST(Rng, DeterministicAndUniform)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());

    Rng r(7);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowAndGaussian)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(10), 10u);
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < 5000; ++i) {
        double g = r.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / 5000.0, 0.0, 0.05);
    EXPECT_NEAR(sq / 5000.0, 1.0, 0.1);
}

} // namespace
} // namespace mcscope
