/// Tests for the option parser (key=value forms, environment fallback,
/// unknown-flag rejection, malformed values) and for the `rdse` CLI driver:
/// subcommand dispatch, exit codes, dry-run artifact emission and report
/// re-rendering — all exercised in process through cli::run.

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <sstream>
#include <string_view>
#include <string>
#include <vector>

#include "cli/rdse_cli.hpp"
#include "core/report.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace rdse {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, ParsesAllArgumentForms) {
  // "--quiet" must be a declared bool: an undeclared option with no value
  // following it is an error, never a silent flag.
  static constexpr std::string_view kBool[] = {"quiet"};
  std::vector<const char*> argv{"prog",   "run",      "--iters=500", "--seed",
                                "9",      "trailing", "--quiet"};
  const Options opts =
      Options::parse(static_cast<int>(argv.size()), argv.data(), kBool);
  EXPECT_EQ(opts.get_int("iters", 0), 500);
  EXPECT_EQ(opts.get_int("seed", 0), 9);
  EXPECT_TRUE(opts.get_flag("quiet"));
  EXPECT_FALSE(opts.get_flag("verbose"));
  ASSERT_EQ(opts.positional().size(), 2u);
  EXPECT_EQ(opts.positional()[0], "run");
  EXPECT_EQ(opts.positional()[1], "trailing");
}

TEST(Options, DeclaredBoolFlagsNeverConsumePositionals) {
  static constexpr std::string_view kBool[] = {"quiet"};
  std::vector<const char*> argv{"prog", "--quiet", "artifact.json"};
  const Options opts =
      Options::parse(static_cast<int>(argv.size()), argv.data(), kBool);
  EXPECT_TRUE(opts.get_flag("quiet"));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "artifact.json");
}

TEST(Options, RequireKnownRejectsUnknownFlag) {
  const Options opts = parse({"--iters=500", "--bogus=1"});
  static constexpr std::string_view kKnown[] = {"iters", "seed"};
  try {
    opts.require_known(kKnown);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown option --bogus"),
              std::string::npos);
  }
  // Subsets of the allowed list pass.
  const Options ok = parse({"--iters=500"});
  EXPECT_NO_THROW(ok.require_known(kKnown));
}

TEST(Options, TrailingGarbageInNumbersIsRejected) {
  // Regression: std::stoll/stod prefix parsing accepted "10abc" as 10 and
  // "1.5x" as 1.5; the whole token must parse.
  EXPECT_THROW((void)parse({"--iters=10abc"}).get_int("iters", 0), Error);
  EXPECT_THROW((void)parse({"--iters=10 "}).get_int("iters", 0), Error);
  EXPECT_THROW((void)parse({"--iters", " 10"}).get_int("iters", 0), Error);
  EXPECT_THROW((void)parse({"--rate=1.5x"}).get_double("rate", 0.0), Error);
  EXPECT_THROW((void)parse({"--rate="}).get_double("rate", 0.0), Error);
  try {
    (void)parse({"--rate=1.5x"}).get_double("rate", 0.0);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("expected number, got '1.5x'"),
              std::string::npos);
  }
  // Clean tokens still parse, including negatives and exponents.
  EXPECT_EQ(parse({"--iters=-3"}).get_int("iters", 0), -3);
  EXPECT_DOUBLE_EQ(parse({"--rate=2.5e2"}).get_double("rate", 0.0), 250.0);
}

TEST(Options, MissingOrMalformedValuesThrow) {
  // "--iters=" and "--iters abc" both carry no usable integer.
  for (const Options& opts :
       {parse({"--iters="}), parse({"--iters", "abc"})}) {
    try {
      (void)opts.get_int("iters", 0);
      FAIL() << "expected Error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("expected integer"),
                std::string::npos);
    }
  }
  EXPECT_THROW((void)parse({"--rate", "fast"}).get_double("rate", 0.0),
               Error);
}

// --------------------------------------------------------------- cli driver

struct CliOutcome {
  int status = 0;
  std::string out;
  std::string err;
};

CliOutcome run_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"rdse"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::ostringstream out;
  std::ostringstream err;
  CliOutcome outcome;
  outcome.status =
      cli::run(static_cast<int>(argv.size()), argv.data(), out, err);
  outcome.out = out.str();
  outcome.err = err.str();
  return outcome;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

TEST(RdseCli, NoCommandPrintsUsageToStderr) {
  const CliOutcome r = run_cli({});
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("usage: rdse"), std::string::npos);
}

TEST(RdseCli, HelpSucceeds) {
  for (const char* flag : {"help", "--help", "-h"}) {
    const CliOutcome r = run_cli({flag});
    EXPECT_EQ(r.status, 0) << flag;
    EXPECT_NE(r.out.find("usage: rdse"), std::string::npos);
  }
}

TEST(RdseCli, UnknownCommandFailsWithUsage) {
  const CliOutcome r = run_cli({"frobnicate"});
  EXPECT_EQ(r.status, 2);
  EXPECT_NE(r.err.find("unknown command 'frobnicate'"), std::string::npos);
}

TEST(RdseCli, UnknownFlagIsRejected) {
  const CliOutcome r = run_cli({"sweep", "--model", "motion", "--bogus=1"});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.err.find("unknown option --bogus"), std::string::npos);
}

TEST(RdseCli, UnknownModelIsRejected) {
  const CliOutcome r = run_cli({"sweep", "--model", "teapot", "--dry-run"});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.err.find("unknown model 'teapot'"), std::string::npos);
}

TEST(RdseCli, ExploreWithZeroRunsDoesNotCrash) {
  const CliOutcome r = run_cli({"explore", "--model", "motion", "--runs=0"});
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.out.find("nothing to explore"), std::string::npos);
}

TEST(RdseCli, ExploreAggregatesRepeatedRuns) {
  const CliOutcome r =
      run_cli({"explore", "--model", "motion", "--runs=2", "--iters=400",
               "--warmup=80", "--threads=2"});
  EXPECT_EQ(r.status, 0);
  EXPECT_NE(r.out.find("2 runs of motion_detection"), std::string::npos);
  EXPECT_NE(r.out.find("hit rate"), std::string::npos);
}

TEST(RdseCli, ExploreRunsTheSyntheticModelFamily) {
  const CliOutcome r =
      run_cli({"explore", "--model", "synthetic:30", "--runs=2",
               "--iters=200", "--warmup=40", "--threads=2"});
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("2 runs of synthetic:30"), std::string::npos);
}

TEST(RdseCli, BenchRunsMapperMatrixAndWritesComparableArtifacts) {
  const std::string prefix = temp_path("rdse-cli-mb");
  const CliOutcome r = run_cli(
      {"bench", "--mappers", "heft,anneal", "--model", "motion", "--runs=2",
       "--iters=400", "--warmup=80", "--threads=2", "--json-prefix",
       prefix.c_str()});
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("mapper matrix"), std::string::npos);
  EXPECT_NE(r.out.find("heft *"), std::string::npos);  // deterministic mark
  for (const char* mapper : {"heft", "anneal"}) {
    std::ifstream file(prefix + "-" + mapper + ".json");
    ASSERT_TRUE(file.good()) << mapper;
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const JsonValue doc = JsonValue::parse(buffer.str());
    EXPECT_TRUE(validate_sweep_json(doc).empty()) << mapper;
    EXPECT_EQ(doc.at("mapper").as_string(), mapper);
    EXPECT_EQ(doc.at("name").as_string(), "mapper-bench");
  }
  // The artifacts pair under `rdse compare` via the shared point label,
  // and the annealer beats the list scheduler even at this tiny budget.
  const std::string heft = prefix + "-heft.json";
  const std::string anneal = prefix + "-anneal.json";
  const CliOutcome cmp =
      run_cli({"compare", heft.c_str(), anneal.c_str(), "--tolerance", "0"});
  EXPECT_EQ(cmp.status, 0) << cmp.err;
  EXPECT_NE(cmp.out.find("no regressions"), std::string::npos);
}

TEST(RdseCli, BenchRejectsUnknownMappers) {
  const CliOutcome r = run_cli({"bench", "--mappers", "heft,warp"});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.err.find("unknown mapper 'warp'"), std::string::npos);
}

TEST(RdseCli, BenchTrimsAndDedupesMapperList) {
  // " heft , heft" names the same mapper twice with shell-quoting padding:
  // it must run once, not fail on the padded token and not write the same
  // artifact path twice.
  const std::string prefix = temp_path("rdse-cli-mtrim");
  const CliOutcome r =
      run_cli({"bench", "--mappers", " heft , heft", "--model", "motion",
               "--runs=1", "--json-prefix", prefix.c_str()});
  ASSERT_EQ(r.status, 0) << r.err;
  std::size_t rows = 0;  // one matrix row: "heft *" (deterministic mark)
  for (std::size_t pos = r.out.find("heft *"); pos != std::string::npos;
       pos = r.out.find("heft *", pos + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 1u);
  std::ifstream file(prefix + "-heft.json");
  EXPECT_TRUE(file.good());
}

TEST(RdseCli, BenchRejectsUnknownMapperAfterTrimming) {
  // The offender is named by its trimmed form, and an all-padding list is
  // an empty list, not a silent run of nothing.
  const CliOutcome r = run_cli({"bench", "--mappers", " warp "});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.err.find("unknown mapper 'warp'"), std::string::npos);
  const CliOutcome blank = run_cli({"bench", "--mappers", " , "});
  EXPECT_EQ(blank.status, 1);
  EXPECT_NE(blank.err.find("--mappers: empty list"), std::string::npos);
}

TEST(RdseCli, SweepDryRunEmitsSchemaValidArtifact) {
  const std::string path = temp_path("rdse-cli-dry.json");
  const CliOutcome r = run_cli({"sweep", "--model", "motion", "--dry-run",
                                "--json", path.c_str()});
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("dry run"), std::string::npos);

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const JsonValue doc = JsonValue::parse(buffer.str());

  EXPECT_TRUE(validate_sweep_json(doc).empty());
  EXPECT_EQ(doc.at("schema").as_string(), "rdse.sweep.v1");
  EXPECT_EQ(doc.at("name").as_string(), "device-size");
  EXPECT_EQ(doc.at("model").as_string(), "motion_detection");
  EXPECT_TRUE(doc.at("dry_run").as_bool());
  // The full Fig. 3 grid is planned; nothing was measured.
  EXPECT_EQ(doc.at("points").size(), 13u);
  for (const JsonValue& point : doc.at("points").items()) {
    EXPECT_EQ(point.at("runs").as_int(), 0);
  }
}

TEST(RdseCli, SweepRunsAndReportRendersArtifact) {
  const std::string path = temp_path("rdse-cli-sweep.json");
  const CliOutcome sweep = run_cli(
      {"sweep", "--model", "motion", "--sizes", "400,800", "--runs=2",
       "--iters=400", "--warmup=80", "--threads=2", "--json", path.c_str()});
  ASSERT_EQ(sweep.status, 0) << sweep.err;
  EXPECT_NE(sweep.out.find("400 CLBs"), std::string::npos);

  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const JsonValue doc = JsonValue::parse(buffer.str());
  EXPECT_TRUE(validate_sweep_json(doc).empty());
  EXPECT_FALSE(doc.at("dry_run").as_bool());
  ASSERT_EQ(doc.at("points").size(), 2u);
  EXPECT_EQ(doc.at("points").items()[0].at("runs").as_int(), 2);
  EXPECT_GT(doc.at("points").items()[0].at("mean_makespan_ms").as_number(),
            0.0);

  const CliOutcome report = run_cli({"report", "--json", path.c_str()});
  EXPECT_EQ(report.status, 0) << report.err;
  EXPECT_NE(report.out.find("device-size"), std::string::npos);
  EXPECT_NE(report.out.find("400 CLBs"), std::string::npos);

  // A boolean flag before the positional path must not swallow it.
  const CliOutcome quiet_report =
      run_cli({"report", "--quiet", path.c_str()});
  EXPECT_EQ(quiet_report.status, 0) << quiet_report.err;
  EXPECT_NE(quiet_report.out.find("400 CLBs"), std::string::npos);
}

TEST(RdseCli, QuietSuppressesAggregatedExploreTable) {
  const CliOutcome r =
      run_cli({"explore", "--model", "motion", "--runs=2", "--iters=300",
               "--warmup=60", "--quiet"});
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_EQ(r.out.find("hit rate"), std::string::npos);
}

TEST(RdseCli, ScheduleAxisSweepsCoolingSchedules) {
  const CliOutcome r = run_cli(
      {"sweep", "--model", "motion", "--axis", "schedule", "--schedules",
       "modified-lam,greedy", "--runs=1", "--iters=300", "--warmup=60"});
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("modified-lam"), std::string::npos);
  EXPECT_NE(r.out.find("greedy"), std::string::npos);
}

TEST(RdseCli, ReportRejectsMissingAndInvalidArtifacts) {
  EXPECT_EQ(run_cli({"report"}).status, 1);
  EXPECT_EQ(run_cli({"report", "--json", "/nonexistent/x.json"}).status, 1);

  const std::string path = temp_path("rdse-cli-bad.json");
  {
    std::ofstream file(path);
    file << R"({"schema": "rdse.sweep.v1", "name": 42})";
  }
  const CliOutcome r = run_cli({"report", "--json", path.c_str()});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.err.find("missing string field 'name'"), std::string::npos);

  {
    std::ofstream file(path);
    file << "this is not json";
  }
  EXPECT_EQ(run_cli({"report", "--json", path.c_str()}).status, 1);
}

TEST(RdseCli, GarbageSizeTokensAreRejectedNotTruncated) {
  // std::stol-style prefix parsing would turn the "4o0" typo into a silent
  // 4-CLB sweep point; the whole token must parse.
  const CliOutcome r = run_cli(
      {"sweep", "--model", "motion", "--sizes", "4o0,800", "--dry-run"});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.err.find("expected integer list, got '4o0'"),
            std::string::npos);
}

TEST(RdseCli, StrayPositionalArgumentsAreRejected) {
  // "dry-run" without the dashes must not silently run a full sweep.
  const CliOutcome sweep = run_cli({"sweep", "--model", "motion", "dry-run"});
  EXPECT_EQ(sweep.status, 1);
  EXPECT_NE(sweep.err.find("unexpected argument 'dry-run'"),
            std::string::npos);
  const CliOutcome explore = run_cli({"explore", "stray"});
  EXPECT_EQ(explore.status, 1);
  EXPECT_NE(explore.err.find("unexpected argument 'stray'"),
            std::string::npos);
}

TEST(RdseCli, SweepRejectsTheOtherAxisFlags) {
  // A flag of the other axis would be silently ignored; like a stray token,
  // it fails before anything runs.
  const CliOutcome sizes =
      run_cli({"sweep", "--model", "motion", "--axis", "schedule", "--sizes",
               "400,800", "--dry-run"});
  EXPECT_EQ(sizes.status, 1);
  EXPECT_NE(sizes.err.find("option --sizes: only valid with --axis "
                           "device-size"),
            std::string::npos);
  const CliOutcome clbs = run_cli({"sweep", "--model", "motion", "--sizes",
                                   "400", "--clbs", "123", "--dry-run"});
  EXPECT_EQ(clbs.status, 1);
  EXPECT_NE(clbs.err.find("option --clbs: only valid with --axis schedule"),
            std::string::npos);
  const CliOutcome schedules = run_cli(
      {"sweep", "--model", "motion", "--schedules", "greedy", "--dry-run"});
  EXPECT_EQ(schedules.status, 1);
  EXPECT_NE(schedules.err.find(
                "option --schedules: only valid with --axis schedule"),
            std::string::npos);
}

TEST(RdseCli, MalformedNumericFlagFailsCleanly) {
  const CliOutcome r =
      run_cli({"sweep", "--model", "motion", "--iters", "abc", "--dry-run"});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.err.find("expected integer"), std::string::npos);
}

TEST(RdseCli, ArtifactShortWriteIsReportedNotSwallowed) {
  // Regression: write_artifact() checked stream state before flushing, so
  // a full disk produced a truncated artifact *and* a success message.
  // /dev/full opens fine and fails every flush, which models that exactly.
  std::ofstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  const CliOutcome r = run_cli({"sweep", "--model", "motion", "--dry-run",
                                "--json", "/dev/full"});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.err.find("failed writing '/dev/full'"), std::string::npos);
  EXPECT_EQ(r.out.find("wrote /dev/full"), std::string::npos);
}

// ------------------------------------------------- rdse serve/request flags

TEST(RdseCli, ServeValidatesItsOptions) {
  EXPECT_EQ(run_cli({"serve"}).status, 1);
  EXPECT_NE(run_cli({"serve"}).err.find("--socket"), std::string::npos);
  const CliOutcome workers =
      run_cli({"serve", "--socket", "/tmp/x.sock", "--workers=0"});
  EXPECT_EQ(workers.status, 1);
  EXPECT_NE(workers.err.find("at least one worker"), std::string::npos);
  const CliOutcome bogus = run_cli({"serve", "--socket", "/tmp/x.sock",
                                    "--bogus=1"});
  EXPECT_EQ(bogus.status, 1);
  EXPECT_NE(bogus.err.find("unknown option --bogus"), std::string::npos);
}

TEST(RdseCli, RequestValidatesItsOptions) {
  EXPECT_EQ(run_cli({"request", "--json", "{}"}).status, 1);
  const CliOutcome neither = run_cli({"request", "--socket", "/tmp/x.sock"});
  EXPECT_EQ(neither.status, 1);
  EXPECT_NE(neither.err.find("--json DOC or --file PATH"),
            std::string::npos);
  const CliOutcome both =
      run_cli({"request", "--socket", "/tmp/x.sock", "--json", "{}",
               "--file", "/tmp/y.json"});
  EXPECT_EQ(both.status, 1);
  EXPECT_NE(both.err.find("mutually exclusive"), std::string::npos);
  // An unreachable socket is a clean client-side error, not a crash.
  const CliOutcome gone = run_cli(
      {"request", "--socket", temp_path("no-such.sock").c_str(), "--json",
       R"({"op": "ping"})"});
  EXPECT_EQ(gone.status, 1);
  EXPECT_NE(gone.err.find("cannot connect"), std::string::npos);
}

// ------------------------------------------------------------ rdse compare

/// Minimal rdse.bench.v1 artifact with one result row; `eval_ns` and
/// `speedup` parameterize the two metrics the regression tests vary.
std::string write_bench_artifact(const std::string& name, double eval_ns,
                                 double speedup) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "rdse.bench.v1");
  doc.set("benchmark", "hotpath");
  JsonValue row = JsonValue::object();
  row.set("model", "motion_detection");
  row.set("incremental_ns_per_evaluated_move", eval_ns);
  row.set("evaluated_move_speedup", speedup);
  JsonValue results = JsonValue::array();
  results.push_back(std::move(row));
  doc.set("results", std::move(results));
  const std::string path = temp_path(name);
  std::ofstream file(path);
  file << doc.dump(2) << "\n";
  return path;
}

TEST(RdseCli, CompareAcceptsIdenticalBenchArtifacts) {
  const std::string base =
      write_bench_artifact("cmp-base.json", 1500.0, 3.0);
  const std::string cur = write_bench_artifact("cmp-cur.json", 1500.0, 3.0);
  const CliOutcome r = run_cli({"compare", base.c_str(), cur.c_str()});
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("no regressions"), std::string::npos);
}

TEST(RdseCli, CompareFlagsLowerIsBetterRegression) {
  // 10x slower per evaluated move: beyond any sane tolerance.
  const std::string base =
      write_bench_artifact("cmp-base2.json", 1500.0, 3.0);
  const std::string cur =
      write_bench_artifact("cmp-cur2.json", 15000.0, 3.0);
  const CliOutcome r = run_cli({"compare", base.c_str(), cur.c_str()});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.out.find("REGRESSED"), std::string::npos);
  EXPECT_NE(r.err.find("regressed beyond tolerance"), std::string::npos);
  // ...but within an explicitly generous tolerance it passes.
  const CliOutcome ok = run_cli(
      {"compare", base.c_str(), cur.c_str(), "--tolerance", "20"});
  EXPECT_EQ(ok.status, 0) << ok.err;
}

TEST(RdseCli, CompareFlagsHigherIsBetterRegression) {
  // The speedup metric regresses by *dropping*; the slowdown direction of
  // the gate must flip for higher-is-better metrics.
  const std::string base =
      write_bench_artifact("cmp-base3.json", 1500.0, 3.0);
  const std::string cur =
      write_bench_artifact("cmp-cur3.json", 1500.0, 0.2);
  const CliOutcome r = run_cli({"compare", base.c_str(), cur.c_str()});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.out.find("evaluated_move_speedup"), std::string::npos);
}

TEST(RdseCli, CompareRejectsSchemaMismatchAndMissingEntries) {
  const std::string bench =
      write_bench_artifact("cmp-bench.json", 1500.0, 3.0);
  const std::string sweep = temp_path("cmp-sweep-dry.json");
  ASSERT_EQ(run_cli({"sweep", "--model", "motion", "--dry-run", "--json",
                     sweep.c_str()})
                .status,
            0);
  const CliOutcome mismatch =
      run_cli({"compare", bench.c_str(), sweep.c_str()});
  EXPECT_EQ(mismatch.status, 1);
  EXPECT_NE(mismatch.err.find("schema mismatch"), std::string::npos);

  // A current artifact missing the baseline's model row must fail loudly,
  // not silently gate on zero metrics.
  const std::string empty = temp_path("cmp-empty.json");
  {
    std::ofstream file(empty);
    file << R"({"schema": "rdse.bench.v1", "results": []})";
  }
  const CliOutcome missing =
      run_cli({"compare", bench.c_str(), empty.c_str()});
  EXPECT_EQ(missing.status, 1);
  EXPECT_NE(missing.err.find("missing bench result"), std::string::npos);
}

TEST(RdseCli, CompareSweepArtifactsAndDryRunPlans) {
  // Two identical real sweeps: every paired metric is unchanged.
  const std::string a = temp_path("cmp-sweep-a.json");
  const std::string b = temp_path("cmp-sweep-b.json");
  for (const std::string& path : {a, b}) {
    ASSERT_EQ(run_cli({"sweep", "--model", "motion", "--sizes", "400",
                       "--runs=1", "--iters=300", "--warmup=60", "--json",
                       path.c_str()})
                  .status,
              0);
  }
  const CliOutcome r = run_cli({"compare", a.c_str(), b.c_str()});
  EXPECT_EQ(r.status, 0) << r.err;
  EXPECT_NE(r.out.find("no regressions"), std::string::npos);

  // Dry-run plans carry no measurements (runs == 0): compare must treat
  // them as vacuously clean rather than failing on absent metrics.
  const std::string dry = temp_path("cmp-sweep-dry2.json");
  ASSERT_EQ(run_cli({"sweep", "--model", "motion", "--dry-run", "--json",
                     dry.c_str()})
                .status,
            0);
  const CliOutcome plans =
      run_cli({"compare", dry.c_str(), dry.c_str(), "--quiet"});
  EXPECT_EQ(plans.status, 0) << plans.err;
}

TEST(RdseCli, CompareFailsLoudlyOnZeroMetricOverlap) {
  // Schema-evolution drift: the current artifact renamed every gated
  // metric, so nothing pairs. "0 metrics, no regressions" exit 0 is
  // exactly what a CI gate must not do — fail naming both metric sets.
  const std::string base =
      write_bench_artifact("cmp-base4.json", 1500.0, 3.0);
  const std::string cur = temp_path("cmp-drift.json");
  {
    std::ofstream file(cur);
    file << R"({"schema": "rdse.bench.v1", "results": [
      {"model": "motion_detection", "ns_per_move_v2": 1500.0}]})";
  }
  const CliOutcome r = run_cli({"compare", base.c_str(), cur.c_str()});
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.err.find("no overlapping metrics"), std::string::npos);
  EXPECT_NE(r.err.find("incremental_ns_per_evaluated_move"),
            std::string::npos);
  EXPECT_NE(r.err.find("ns_per_move_v2"), std::string::npos);
}

TEST(RdseCli, CompareRejectsBadInputs) {
  EXPECT_EQ(run_cli({"compare"}).status, 1);
  EXPECT_EQ(run_cli({"compare", "/nonexistent/a.json",
                     "/nonexistent/b.json"})
                .status,
            1);
  const std::string bench =
      write_bench_artifact("cmp-bench2.json", 1500.0, 3.0);
  const CliOutcome negative = run_cli(
      {"compare", bench.c_str(), bench.c_str(), "--tolerance", "-0.5"});
  EXPECT_EQ(negative.status, 1);
  EXPECT_NE(negative.err.find("negative tolerance"), std::string::npos);
}

}  // namespace
}  // namespace rdse
