/// Tests for the option parser (key=value forms, unknown-flag rejection,
/// malformed values) and for the `rdse` CLI driver: subcommand dispatch,
/// exit codes, dry-run artifact emission, report re-rendering, and the run
/// flags that serve's request parser bounds — all exercised in process
/// through cli::run.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <string>
#include <utility>
#include <vector>

#include "cli/rdse_cli.hpp"
#include "core/checkpoint.hpp"
#include "core/report.hpp"
#include "serve/service.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

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

TEST(Options, RangedIntegersAreBoundedNotNarrowed) {
  constexpr std::int64_t kUintMax = 4'294'967'295;
  // Both ends of the range are accepted, and a missing flag reads `def`.
  EXPECT_EQ(parse({"--threads=0"}).get_int_in("threads", 3, 0, kUintMax), 0);
  EXPECT_EQ(parse({"--threads=4294967295"})
                .get_int_in("threads", 3, 0, kUintMax),
            kUintMax);
  EXPECT_EQ(parse({}).get_int_in("threads", 3, 0, kUintMax), 3);
  // One past either end is an error naming the flag and its range, never
  // a wrapped value (4294967297 would narrow to 1).
  const std::pair<const char*, const char*> cases[] = {
      {"--threads=-1",
       "option --threads: need an integer in [0, 4294967295], got -1"},
      {"--threads=4294967296",
       "option --threads: need an integer in [0, 4294967295], got "
       "4294967296"},
      {"--threads=4294967297",
       "option --threads: need an integer in [0, 4294967295], got "
       "4294967297"},
  };
  for (const auto& [arg, message] : cases) {
    try {
      (void)parse({arg}).get_int_in("threads", 0, 0, kUintMax);
      FAIL() << arg << ": expected Error";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), message) << arg;
    }
  }
  // A default outside the range is as wrong as a flag, and a malformed
  // value still fails as get_int does.
  EXPECT_THROW((void)parse({}).get_int_in("runs", 0, 1, 10), Error);
  try {
    (void)parse({"--runs=2x"}).get_int_in("runs", 1, 1, 10);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("expected integer, got '2x'"),
              std::string::npos);
  }
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
  // Every other flag is still validated before nothing runs.
  const CliOutcome model =
      run_cli({"explore", "--runs=0", "--model", "teapot"});
  EXPECT_EQ(model.status, 1);
  EXPECT_NE(model.err.find("unknown model 'teapot'"), std::string::npos);
  const CliOutcome clbs = run_cli({"explore", "--runs=0", "--clbs=0"});
  EXPECT_EQ(clbs.status, 1);
  EXPECT_NE(clbs.err.find("'clbs' must be"), std::string::npos);
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

TEST(RdseCli, ExploreRejectsCheckpointEveryWithoutCheckpoint) {
  // Nothing would be checkpointed, so the flag would be read and dropped.
  const CliOutcome alone =
      run_cli({"explore", "--checkpoint-every=5", "--quiet"});
  EXPECT_EQ(alone.status, 1);
  EXPECT_NE(alone.err.find("option --checkpoint-every: requires "
                           "--checkpoint or --resume"),
            std::string::npos);

  // It stays valid beside --checkpoint, and on its own path with --resume.
  const std::string ckpt = temp_path("rdse-cli-every.ckpt");
  const char* path = ckpt.c_str();
  const CliOutcome saved = run_cli(
      {"explore", "--checkpoint", path, "--checkpoint-every=5000", "--quiet"});
  EXPECT_EQ(saved.status, 0) << saved.err;
  const CliOutcome resumed = run_cli(
      {"explore", "--resume", path, "--checkpoint-every=50", "--quiet"});
  EXPECT_EQ(resumed.status, 0) << resumed.err;
}

TEST(RdseCli, HelpStatesEachCommandsIterationDefault) {
  // explore and bench run 20 000 cooling iterations, sweep 15 000.
  const std::string usage = run_cli({"help"}).out;
  const auto line_of = [&usage](const std::string& section) {
    const std::size_t at = usage.find("--iters N", usage.find(section));
    if (at == std::string::npos) return std::string();
    return usage.substr(at, usage.find('\n', at) - at);
  };
  EXPECT_NE(line_of("common options:").find("[20000]"), std::string::npos);
  EXPECT_NE(line_of("sweep options:").find("[15000]"), std::string::npos);

  const std::string json = temp_path("rdse-cli-default-iters.json");
  const CliOutcome r = run_cli({"explore", "--quiet", "--json", json.c_str()});
  ASSERT_EQ(r.status, 0) << r.err;
  std::ifstream file(json);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(JsonValue::parse(buffer.str()).at("iterations").as_int(), 20000);
}

TEST(RdseCli, ExploreRunsTableIsTheSameForAnyThreadCount) {
  // The batch runs through the mapper registry's sharded engine, and its
  // table carries no thread count: --threads 1 and 2 print the same bytes.
  const CliOutcome one = run_cli(
      {"explore", "--runs=3", "--iters=300", "--threads=1", "--batch=2"});
  const CliOutcome two = run_cli(
      {"explore", "--runs=3", "--iters=300", "--threads=2", "--batch=2"});
  ASSERT_EQ(one.status, 0) << one.err;
  EXPECT_NE(one.out.find("3 runs of motion_detection on 2000 CLBs"),
            std::string::npos);
  EXPECT_EQ(one.out, two.out);
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

// ------------------------------------------- one request parser, two doors

JsonValue read_json(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return JsonValue::parse(buffer.str());
}

/// The `result` payload serve answers `line` with.
JsonValue serve_payload(const std::string& line) {
  serve::ExplorationService service;
  const auto handled = service.handle(line);
  EXPECT_TRUE(handled.ok) << handled.response;
  return JsonValue::parse(handled.response).at("result");
}

TEST(RdseCli, RunFlagsOutsideTheRequestBoundsNameTheirField) {
  // A narrowing cast would run each as a value nobody typed (2000 CLBs,
  // 2 runs, K = 2, seed ffffffffffffffff); the request bounds reject them.
  const std::pair<const char*, const char*> cases[] = {
      {"--clbs=4294969296", "'clbs' must be an integer in [1, 1000000]"},
      {"--runs=4294967298", "'runs' must be an integer in [1, 100000]"},
      {"--batch=4294967298", "'batch' must be an integer in [1, 1024]"},
      {"--seed=-1", "'seed' must be an integer in [0, 9007199254740991]"},
  };
  for (const auto& [flag, message] : cases) {
    const CliOutcome r =
        run_cli({"explore", flag, "--iters=300", "--warmup=60", "--quiet"});
    EXPECT_EQ(r.status, 1) << flag;
    EXPECT_NE(r.err.find(message), std::string::npos) << r.err;
  }
  // Zero runs or iterations plan nothing to measure: --dry-run plans.
  const CliOutcome runs = run_cli({"sweep", "--runs=0", "--quiet"});
  EXPECT_EQ(runs.status, 1);
  EXPECT_NE(runs.err.find("'runs' must be"), std::string::npos) << runs.err;
  const CliOutcome iters = run_cli({"sweep", "--iters=0", "--dry-run"});
  EXPECT_EQ(iters.status, 1);
  EXPECT_NE(iters.err.find("'iters' must be"), std::string::npos);
}

TEST(RdseCli, SeedsStopAtTwoToThe53) {
  // 2^53 is the first seed a JSON number cannot keep apart from its
  // neighbour; the CLI sends its flags through the same parser.
  const CliOutcome top =
      run_cli({"explore", "--seed=9007199254740991", "--iters=300",
               "--warmup=60", "--quiet"});
  EXPECT_EQ(top.status, 0) << top.err;
  const CliOutcome over =
      run_cli({"explore", "--seed=9007199254740992", "--iters=300",
               "--warmup=60", "--quiet"});
  EXPECT_EQ(over.status, 1);
  EXPECT_NE(over.err.find("'seed' must be an integer in "
                          "[0, 9007199254740991], got 9007199254740992"),
            std::string::npos)
      << over.err;
}

TEST(RdseCli, EnvironmentVariablesDoNotChangeTheRun) {
  const std::string plain = temp_path("rdse-cli-env-plain.json");
  const std::string with_env = temp_path("rdse-cli-env-set.json");
  ASSERT_EQ(run_cli({"explore", "--quiet", "--json", plain.c_str()}).status,
            0);
  ::setenv("RDSE_ITERS", "50", 1);
  ::setenv("RDSE_SEED", "9", 1);
  ::setenv("RDSE_MODEL", "synthetic:30", 1);
  const CliOutcome r = run_cli({"explore", "--quiet", "--json",
                                with_env.c_str()});
  ::unsetenv("RDSE_ITERS");
  ::unsetenv("RDSE_SEED");
  ::unsetenv("RDSE_MODEL");
  ASSERT_EQ(r.status, 0) << r.err;
  EXPECT_EQ(read_json(with_env).dump(), read_json(plain).dump());
}

TEST(RdseCli, ThreadAndWorkerCountsMustFitUnsigned) {
  // Stored as unsigned, -1 and 2^32 + 1 would wrap to 4294967295 and 1.
  const CliOutcome explore = run_cli({"explore", "--runs=2", "--threads=-1",
                                      "--iters=300", "--warmup=60"});
  EXPECT_EQ(explore.status, 1);
  EXPECT_NE(explore.err.find("option --threads: need an integer in "
                             "[0, 4294967295], got -1"),
            std::string::npos)
      << explore.err;
  const CliOutcome sweep =
      run_cli({"sweep", "--threads=4294967296", "--dry-run", "--quiet"});
  EXPECT_EQ(sweep.status, 1);
  EXPECT_NE(sweep.err.find("option --threads"), std::string::npos);
  const CliOutcome bench = run_cli({"bench", "--mappers=heft", "--runs=1",
                                    "--threads=-1", "--quiet"});
  EXPECT_EQ(bench.status, 1);
  EXPECT_NE(bench.err.find("option --threads"), std::string::npos);
  // The socket's directory does not exist, so a daemon that got past its
  // flags would fail at bind instead of starting.
  const std::string socket = temp_path("no-such-dir/rdse.sock");
  const std::pair<const char*, const char*> serve_cases[] = {
      {"--workers=4294967297", "option --workers: need an integer"},
      {"--run-threads=4294967297", "option --run-threads: need an integer"},
  };
  for (const auto& [flag, message] : serve_cases) {
    const CliOutcome serve = run_cli({"serve", "--socket", socket.c_str(),
                                      flag, "--quiet"});
    EXPECT_EQ(serve.status, 1) << flag;
    EXPECT_NE(serve.err.find(message), std::string::npos) << serve.err;
  }
}

TEST(RdseCli, SweepArtifactIsServesSweepPayload) {
  const std::string path = temp_path("rdse-cli-sweep-vs-serve.json");
  const CliOutcome r = run_cli(
      {"sweep", "--sizes", "400,800", "--runs", "2", "--iters", "400",
       "--warmup", "80", "--quiet", "--json", path.c_str()});
  ASSERT_EQ(r.status, 0) << r.err;
  const JsonValue artifact = read_json(path);
  const JsonValue payload = serve_payload(
      R"({"op": "sweep", "sizes": [400, 800], "runs": 2, "iters": 400, )"
      R"("warmup": 80})");
  // The artifact is the payload plus its trailing "dry_run" flag.
  JsonValue without_flag = JsonValue::object();
  for (const auto& [key, value] : artifact.members()) {
    if (key != "dry_run") without_flag.set(key, value);
  }
  EXPECT_FALSE(artifact.at("dry_run").as_bool());
  EXPECT_EQ(without_flag.dump(), payload.dump());
}

TEST(RdseCli, ExploreRunsTablePrintsServesAggregate) {
  const CliOutcome r =
      run_cli({"explore", "--runs=3", "--iters=400", "--warmup=80"});
  ASSERT_EQ(r.status, 0) << r.err;
  const JsonValue agg =
      serve_payload(R"({"op": "explore", "runs": 3, "iters": 400, )"
                    R"("warmup": 80})")
          .at("aggregate");
  Table table({"runs", "mean ms", "sd", "best ms", "worst ms", "contexts",
               "hit rate"});
  table.row().cell(agg.at("runs").as_int());
  for (const char* field :
       {"mean_makespan_ms", "stddev_makespan_ms", "best_makespan_ms",
        "worst_makespan_ms", "mean_contexts", "deadline_hit_rate"}) {
    table.cell(agg.at(field).as_number(), 2);
  }
  std::ostringstream expected;
  table.print(expected, "3 runs of motion_detection on 2000 CLBs");
  EXPECT_EQ(r.out, expected.str());
}

// ------------------------------------------------- rdse serve/request flags

TEST(RdseCli, ServeValidatesItsOptions) {
  EXPECT_EQ(run_cli({"serve"}).status, 1);
  EXPECT_NE(run_cli({"serve"}).err.find("--socket"), std::string::npos);
  const CliOutcome workers =
      run_cli({"serve", "--socket", "/tmp/x.sock", "--workers=0"});
  EXPECT_EQ(workers.status, 1);
  EXPECT_NE(workers.err.find("option --workers: need an integer in "
                             "[1, 4294967295], got 0"),
            std::string::npos);
  const CliOutcome bogus = run_cli({"serve", "--socket", "/tmp/x.sock",
                                    "--bogus=1"});
  EXPECT_EQ(bogus.status, 1);
  EXPECT_NE(bogus.err.find("unknown option --bogus"), std::string::npos);
}

TEST(RdseCli, ServeBoundsItsIntegerFlags) {
  // The socket's directory does not exist, so a daemon that got past its
  // flags would fail at bind instead of starting.
  const std::string socket = "--socket=" + temp_path("no-such-dir/rdse.sock");
  const std::pair<const char*, const char*> cases[] = {
      {"--workers=0", "--workers: need an integer in [1, 4294967295], got 0"},
      {"--queue=-1",
       "--queue: need an integer in [0, 9223372036854775807], got -1"},
      {"--cache=-1",
       "--cache: need an integer in [0, 9223372036854775807], got -1"},
      {"--idle-timeout-ms=-1",
       "--idle-timeout-ms: need an integer in [0, 9223372036854775807], "
       "got -1"},
      {"--max-conns=0",
       "--max-conns: need an integer in [1, 9223372036854775807], got 0"},
      {"--max-iters=0",
       "--max-iters: need an integer in [1, 9223372036854775807], got 0"},
  };
  for (const auto& [flag, message] : cases) {
    const CliOutcome r = run_cli({"serve", socket.c_str(), flag, "--quiet"});
    EXPECT_EQ(r.status, 1) << flag;
    EXPECT_EQ(r.err, std::string("rdse serve: option ") + message + "\n");
  }
}

TEST(RdseCli, RequestBoundsItsIntegerFlags) {
  const std::string socket = "--socket=" + temp_path("no-such.sock");
  const char* ping = R"(--json={"op": "ping"})";
  const std::pair<const char*, const char*> cases[] = {
      {"--timeout-ms=-1",
       "--timeout-ms: need an integer in [0, 9223372036854775807], got -1"},
      {"--retries=1001", "--retries: need an integer in [0, 1000], got 1001"},
      {"--retry-base-ms=-1",
       "--retry-base-ms: need an integer in [0, 9223372036854775807], "
       "got -1"},
  };
  for (const auto& [flag, message] : cases) {
    const CliOutcome r = run_cli({"request", socket.c_str(), ping, flag});
    EXPECT_EQ(r.status, 1) << flag;
    EXPECT_EQ(r.err, std::string("rdse request: option ") + message + "\n");
  }
}

TEST(RdseCli, ExploreBoundsCheckpointEveryOnBothPaths) {
  const std::string ckpt = temp_path("rdse-cli-every-bound.ckpt");
  const char* path = ckpt.c_str();
  const std::string message =
      "rdse explore: option --checkpoint-every: need an integer in "
      "[1, 9223372036854775807], got 0\n";
  const CliOutcome fresh = run_cli(
      {"explore", "--checkpoint", path, "--checkpoint-every=0", "--quiet"});
  EXPECT_EQ(fresh.status, 1);
  EXPECT_EQ(fresh.err, message);
  const CliOutcome saved =
      run_cli({"explore", "--checkpoint", path, "--quiet"});
  ASSERT_EQ(saved.status, 0) << saved.err;
  const CliOutcome resumed =
      run_cli({"explore", "--resume", path, "--checkpoint-every=0", "--quiet"});
  EXPECT_EQ(resumed.status, 1);
  EXPECT_EQ(resumed.err, message);
}

TEST(RdseCli, ResumeRejectsASolutionOnAResourceThePlatformLacks) {
  // The golden checkpoint resealed with its processor record moved to
  // resource 7: the checksum holds, the id names nothing on the platform.
  JsonValue body = load_checkpoint(std::string(RDSE_GOLDEN_DIR) +
                                   "/checkpoint-motion-seed1-at700.json");
  JsonValue& problem = *body.find("session")->find("problem");
  std::string text = problem.at("current_solution").as_string();
  const std::size_t at = text.find("\nproc 0 ");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 8, "\nproc 7 ");
  problem.set("current_solution", text);
  const std::string ckpt = temp_path("rdse-cli-proc7.ckpt");
  ASSERT_TRUE(save_checkpoint(ckpt, body));

  const CliOutcome r =
      run_cli({"explore", "--resume", ckpt.c_str(), "--quiet"});
  EXPECT_EQ(r.status, 1);
  EXPECT_EQ(r.err,
            "rdse explore: solution_from_text: line 3: resource 7 is not a "
            "live processor\n");
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
