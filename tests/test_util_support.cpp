/// Tests for tables, plots, CLI options, logging and time formatting.

#include <gtest/gtest.h>

#include <sstream>
#include <string_view>

#include "util/ascii_plot.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace rdse {
namespace {

// ---- time -------------------------------------------------------------

TEST(Time, RoundTripMs) {
  EXPECT_EQ(from_ms(1.0), kNsPerMs);
  EXPECT_DOUBLE_EQ(to_ms(from_ms(76.4)), 76.4);
  EXPECT_EQ(from_ms(0.0), 0);
}

TEST(Time, MicrosecondHelpers) {
  EXPECT_EQ(from_us(22.5), 22'500);
  EXPECT_DOUBLE_EQ(to_us(from_us(22.5)), 22.5);
}

TEST(Time, Format) {
  EXPECT_EQ(format_ms(from_ms(18.1)), "18.10 ms");
  EXPECT_EQ(format_ms(0), "0.00 ms");
}

// ---- table --------------------------------------------------------------

TEST(Table, TextRenderingAligns) {
  Table t({"name", "value"});
  t.row().cell(std::string("alpha")).cell(std::int64_t{1});
  t.row().cell(std::string("b")).cell(22.5, 1);
  const std::string text = t.to_text();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.5"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, CsvEscaping) {
  Table t({"a", "b"});
  t.row().cell(std::string("x,y")).cell(std::string("say \"hi\""));
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, MarkdownShape) {
  Table t({"h1", "h2"});
  t.row().cell(1).cell(2);
  const std::string md = t.to_markdown();
  EXPECT_NE(md.find("| h1 | h2 |"), std::string::npos);
  EXPECT_NE(md.find("|---|---|"), std::string::npos);
}

TEST(Table, AtAccessorAndCounts) {
  Table t({"x"});
  t.row().cell(std::string("v"));
  EXPECT_EQ(t.row_count(), 1u);
  EXPECT_EQ(t.column_count(), 1u);
  EXPECT_EQ(t.at(0, 0), "v");
  EXPECT_THROW((void)t.at(1, 0), Error);
}

TEST(Table, RejectsIllFormedUse) {
  Table t({"a", "b"});
  EXPECT_THROW(t.cell(std::string("no row yet")), Error);
  t.row().cell(1).cell(2);
  EXPECT_THROW(t.cell(3), Error);  // row already full
  EXPECT_THROW(Table({}), Error);
}

TEST(FormatDouble, Decimals) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

// ---- ascii plot ---------------------------------------------------------

TEST(AsciiPlot, ContainsGlyphAndLegend) {
  Series s{"speed", {0.0, 1.0, 2.0}, {1.0, 4.0, 9.0}, '*'};
  const std::string plot = render_plot({s}, PlotOptions{40, 8, "x", "y"});
  EXPECT_NE(plot.find('*'), std::string::npos);
  EXPECT_NE(plot.find("speed"), std::string::npos);
  EXPECT_NE(plot.find("(x)"), std::string::npos);
}

TEST(AsciiPlot, EmptySeries) {
  EXPECT_EQ(render_plot({}, PlotOptions{40, 8, "", ""}), "(empty plot)\n");
}

TEST(AsciiPlot, RejectsTinyCanvas) {
  Series s{"s", {0.0}, {0.0}, '*'};
  EXPECT_THROW((void)render_plot({s}, PlotOptions{2, 2, "", ""}), Error);
}

TEST(AsciiPlot, MismatchedSeriesThrows) {
  Series s{"s", {0.0, 1.0}, {0.0}, '*'};
  EXPECT_THROW((void)render_plot({s}, PlotOptions{40, 8, "", ""}), Error);
}

TEST(Sparkline, MonotoneRamp) {
  std::vector<double> v;
  for (int i = 0; i < 64; ++i) v.push_back(i);
  const std::string line = sparkline(v, 16);
  EXPECT_EQ(line.size(), 16u);
  EXPECT_EQ(line.front(), ' ');
  EXPECT_EQ(line.back(), '#');
}

TEST(Sparkline, ConstantSeriesIsFlat) {
  const std::string line = sparkline(std::vector<double>(10, 5.0), 8);
  for (char c : line) EXPECT_EQ(c, ' ');
}

// ---- cli ----------------------------------------------------------------

TEST(Options, ParsesKeyValueForms) {
  // The trailing bare "--flag" must be declared as a bool: an undeclared
  // option with no value following it throws instead of becoming "1".
  static constexpr std::string_view kBool[] = {"flag"};
  const char* argv[] = {"prog", "pos", "--alpha=3", "--beta", "7", "--flag"};
  const Options o = Options::parse(6, argv, kBool);
  EXPECT_EQ(o.get_int("alpha", 0), 3);
  EXPECT_EQ(o.get_int("beta", 0), 7);
  EXPECT_TRUE(o.get_flag("flag"));
  ASSERT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos");
}

TEST(Options, UndeclaredOptionWithoutValueThrows) {
  // Regression: "--iters --quiet" used to silently record iters="1"; it
  // must now report the missing value.
  const char* argv[] = {"prog", "--iters", "--quiet"};
  try {
    (void)Options::parse(3, argv);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--iters requires a value"),
              std::string::npos);
  }
  const char* tail[] = {"prog", "--iters"};
  EXPECT_THROW((void)Options::parse(2, tail), Error);
}

TEST(Options, SpaceSeparatedValueBindsToPrecedingOption) {
  const char* argv[] = {"prog", "--flag", "yes"};
  const Options o = Options::parse(3, argv);
  EXPECT_EQ(o.get_string("flag", ""), "yes");
  EXPECT_TRUE(o.positional().empty());
}

TEST(Options, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const Options o = Options::parse(1, argv);
  EXPECT_EQ(o.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(o.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(o.get_string("missing", "d"), "d");
  EXPECT_FALSE(o.get_flag("missing"));
}

TEST(Options, BadIntegerThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  const Options o = Options::parse(2, argv);
  EXPECT_THROW((void)o.get_int("n", 0), Error);
}

// ---- log ----------------------------------------------------------------

TEST(Log, LevelGateIsRespected) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  // Nothing observable without intercepting stderr; this exercises the path
  // and the getter contract.
  log_info("suppressed message");
  EXPECT_EQ(log_level(), LogLevel::kError);
  set_log_level(saved);
}

}  // namespace
}  // namespace rdse
