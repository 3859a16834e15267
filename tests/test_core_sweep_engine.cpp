/// Tests for the one batch runner: bit-identity of SweepEngine::run with
/// the serial Explorer::run_many loop and with per-seed mapper calls across
/// thread counts, mixed-mapper grids, seed-order stability, edge cases
/// (empty sweeps, zero runs, unknown mappers) and exception propagation
/// from failing run jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "baseline/mapper.hpp"
#include "core/report.hpp"
#include "core/sweep_engine.hpp"
#include "model/motion_detection.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"

namespace rdse {
namespace {

void expect_metrics_equal(const Metrics& a, const Metrics& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.init_reconfig, b.init_reconfig);
  EXPECT_EQ(a.dyn_reconfig, b.dyn_reconfig);
  EXPECT_EQ(a.comm_cross, b.comm_cross);
  EXPECT_EQ(a.sw_busy, b.sw_busy);
  EXPECT_EQ(a.hw_busy, b.hw_busy);
  EXPECT_EQ(a.n_contexts, b.n_contexts);
  EXPECT_EQ(a.sw_tasks, b.sw_tasks);
  EXPECT_EQ(a.hw_tasks, b.hw_tasks);
  EXPECT_EQ(a.clbs_loaded, b.clbs_loaded);
  EXPECT_EQ(a.max_context_clbs, b.max_context_clbs);
}

/// Every field of two mapper runs must match exactly; wall_seconds is the
/// only field allowed to differ between serial and sharded paths.
void expect_run_equal(const MapperResult& a, const MapperResult& b) {
  EXPECT_TRUE(a.best_solution == b.best_solution);
  expect_metrics_equal(a.best_metrics, b.best_metrics);
  EXPECT_EQ(a.best_cost_ms, b.best_cost_ms);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.counters.dump(), b.counters.dump());
}

/// An anneal-mapper run against the Explorer run it wraps: every field a
/// MapperResult carries must match exactly.
void expect_mapper_run_equal(const MapperResult& a, const RunResult& b) {
  EXPECT_TRUE(a.best_solution == b.best_solution);
  expect_metrics_equal(a.best_metrics, b.best_metrics);
  EXPECT_EQ(a.evaluations, b.anneal.accepted + b.anneal.rejected);
  EXPECT_EQ(a.counters.at("iterations_run").as_int(),
            b.anneal.iterations_run);
  EXPECT_EQ(a.counters.at("accepted").as_int(), b.anneal.accepted);
  EXPECT_EQ(a.counters.at("rejected").as_int(), b.anneal.rejected);
  EXPECT_EQ(a.counters.at("infeasible").as_int(), b.anneal.infeasible);
  EXPECT_EQ(a.counters.at("best_iteration").as_int(),
            b.anneal.best_iteration);
}

/// Bit-exact aggregate comparison over every statistic that does not
/// involve wall-clock time.
void expect_aggregate_equal(const RunAggregate& a, const RunAggregate& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.mean_makespan_ms, b.mean_makespan_ms);
  EXPECT_EQ(a.stddev_makespan_ms, b.stddev_makespan_ms);
  EXPECT_EQ(a.best_makespan_ms, b.best_makespan_ms);
  EXPECT_EQ(a.worst_makespan_ms, b.worst_makespan_ms);
  EXPECT_EQ(a.mean_init_reconfig_ms, b.mean_init_reconfig_ms);
  EXPECT_EQ(a.mean_dyn_reconfig_ms, b.mean_dyn_reconfig_ms);
  EXPECT_EQ(a.mean_contexts, b.mean_contexts);
  EXPECT_EQ(a.mean_hw_tasks, b.mean_hw_tasks);
  EXPECT_EQ(a.deadline_hit_rate, b.deadline_hit_rate);
}

class SweepEngineFixture : public ::testing::Test {
 protected:
  SweepEngineFixture()
      : app(make_motion_detection_app()),
        arch(make_cpu_fpga_architecture(2000, kMotionDetectionTrPerClb,
                                        kMotionDetectionBusRate)) {}

  ExplorerConfig small_config() const {
    ExplorerConfig config;
    config.seed = 17;
    config.iterations = 600;
    config.warmup_iterations = 100;
    config.record_trace = false;
    return config;
  }

  SweepSpec small_device_spec(int runs) const {
    const std::int32_t sizes[] = {400, 800};
    return device_size_sweep(sizes, kMotionDetectionTrPerClb,
                             kMotionDetectionBusRate, small_config(), runs,
                             app.deadline);
  }

  /// A seeded batch of one mapper: the one-point sweep `rdse explore
  /// --runs` and serve's explore run.
  SweepSpec one_point_spec(const ExplorerConfig& config, int runs) const {
    const std::string anneal[] = {"anneal"};
    return mapper_sweep(anneal, arch, config, runs, app.deadline, "", 2000.0);
  }

  Application app;
  Architecture arch;
};

TEST_F(SweepEngineFixture, OnePointSweepMatchesExplorerRunManyAcrossThreads) {
  const Explorer explorer(app.graph, arch);
  const ExplorerConfig config = small_config();
  const int n = 4;
  const std::vector<RunResult> serial = explorer.run_many(config, n);

  std::vector<RunAggregate> aggregates;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const SweepResult sweep =
        SweepEngine(threads).run(app.graph, one_point_spec(config, n));
    ASSERT_EQ(sweep.points.size(), 1u);
    const std::vector<MapperResult>& parallel = sweep.points[0].runs;
    ASSERT_EQ(parallel.size(), serial.size()) << "threads " << threads;
    for (int i = 0; i < n; ++i) {
      expect_mapper_run_equal(parallel[static_cast<std::size_t>(i)],
                              serial[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(sweep.points[0].aggregate.runs, n);
    aggregates.push_back(sweep.points[0].aggregate);
  }
  expect_aggregate_equal(aggregates[1], aggregates[0]);
  expect_aggregate_equal(aggregates[2], aggregates[0]);
}

TEST_F(SweepEngineFixture, OnePointSweepMergesInSeedOrder) {
  const Explorer explorer(app.graph, arch);
  const ExplorerConfig config = small_config();
  const SweepResult sweep =
      SweepEngine(8).run(app.graph, one_point_spec(config, 3));
  const std::vector<MapperResult>& batch = sweep.points[0].runs;
  ASSERT_EQ(batch.size(), 3u);

  // Slot i must hold exactly the run seeded config.seed + i, regardless of
  // the order the pool finished the jobs in.
  for (int i = 0; i < 3; ++i) {
    ExplorerConfig single = config;
    single.seed = config.seed + static_cast<std::uint64_t>(i);
    const RunResult ref = explorer.run(single);
    expect_mapper_run_equal(batch[static_cast<std::size_t>(i)], ref);
  }
}

TEST_F(SweepEngineFixture, ZeroRunsAreAllowedNegativeThrow) {
  const Explorer explorer(app.graph, arch);
  const ExplorerConfig config = small_config();

  // The serial facade: n == 0 returns an empty batch instead of crashing
  // (the CLI forwards user-supplied --runs values here).
  EXPECT_TRUE(explorer.run_many(config, 0).empty());
  EXPECT_THROW((void)explorer.run_many(config, -1), Error);

  const SweepEngine engine(2);
  const auto run = [&](int n) {
    return engine.run(app.graph, one_point_spec(config, n));
  };
  const SweepResult none = run(0);
  ASSERT_EQ(none.points.size(), 1u);
  EXPECT_TRUE(none.points[0].runs.empty());
  EXPECT_EQ(none.points[0].aggregate.runs, 0);
  EXPECT_THROW((void)run(-1), Error);
}

TEST_F(SweepEngineFixture, EmptySweepEdgeCases) {
  const SweepEngine engine(4);

  // No points at all.
  SweepSpec empty;
  empty.name = "empty";
  empty.runs_per_point = 3;
  const SweepResult no_points = engine.run(app.graph, empty);
  EXPECT_TRUE(no_points.points.empty());
  EXPECT_GE(engine.resolved_threads(0), 1u);

  // Points but zero runs: the grid is preserved, aggregates stay zeroed.
  SweepSpec dry = small_device_spec(0);
  const SweepResult no_runs = engine.run(app.graph, dry);
  ASSERT_EQ(no_runs.points.size(), 2u);
  for (const SweepPointResult& p : no_runs.points) {
    EXPECT_TRUE(p.runs.empty());
    EXPECT_EQ(p.aggregate.runs, 0);
    EXPECT_EQ(p.aggregate.mean_makespan_ms, 0.0);
  }

  SweepSpec negative = small_device_spec(-1);
  EXPECT_THROW((void)engine.run(app.graph, negative), Error);
}

TEST_F(SweepEngineFixture, SinglePointSweepMatchesSerialRunMany) {
  const std::int32_t sizes[] = {800};
  const SweepSpec spec =
      device_size_sweep(sizes, kMotionDetectionTrPerClb,
                        kMotionDetectionBusRate, small_config(), 3,
                        app.deadline);
  const SweepEngine engine(8);
  const SweepResult sweep = engine.run(app.graph, spec);
  ASSERT_EQ(sweep.points.size(), 1u);
  ASSERT_EQ(sweep.points[0].runs.size(), 3u);
  EXPECT_EQ(sweep.points[0].label, "800 CLBs");
  EXPECT_EQ(sweep.points[0].x, 800.0);

  const Explorer serial(app.graph, spec.points[0].arch);
  const std::vector<RunResult> ref = serial.run_many(small_config(), 3);
  double best = to_ms(ref[0].best_metrics.makespan);
  double worst = best;
  for (std::size_t r = 0; r < ref.size(); ++r) {
    expect_mapper_run_equal(sweep.points[0].runs[r], ref[r]);
    best = std::min(best, to_ms(ref[r].best_metrics.makespan));
    worst = std::max(worst, to_ms(ref[r].best_metrics.makespan));
  }
  EXPECT_EQ(sweep.points[0].aggregate.runs, 3);
  EXPECT_EQ(sweep.points[0].aggregate.best_makespan_ms, best);
  EXPECT_EQ(sweep.points[0].aggregate.worst_makespan_ms, worst);
}

TEST_F(SweepEngineFixture, DeviceSweepBitIdenticalAcrossThreadCounts) {
  const SweepSpec spec = small_device_spec(3);

  std::vector<SweepResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    results.push_back(SweepEngine(threads).run(app.graph, spec));
  }
  const SweepResult& ref = results.front();
  ASSERT_EQ(ref.points.size(), 2u);

  for (std::size_t i = 1; i < results.size(); ++i) {
    const SweepResult& got = results[i];
    ASSERT_EQ(got.points.size(), ref.points.size());
    for (std::size_t p = 0; p < ref.points.size(); ++p) {
      EXPECT_EQ(got.points[p].label, ref.points[p].label);
      expect_aggregate_equal(got.points[p].aggregate,
                             ref.points[p].aggregate);
      ASSERT_EQ(got.points[p].runs.size(), ref.points[p].runs.size());
      for (std::size_t r = 0; r < ref.points[p].runs.size(); ++r) {
        expect_run_equal(got.points[p].runs[r], ref.points[p].runs[r]);
      }
    }
  }

  // And the whole grid equals the serial per-point loops it replaced.
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    const Explorer serial(app.graph, spec.points[p].arch);
    const std::vector<RunResult> serial_runs =
        serial.run_many(spec.points[p].config, spec.runs_per_point);
    for (std::size_t r = 0; r < serial_runs.size(); ++r) {
      expect_mapper_run_equal(ref.points[p].runs[r], serial_runs[r]);
    }
  }
}

TEST_F(SweepEngineFixture, MixedMapperGridMatchesSerialMapperRuns) {
  // Three mappers on three devices in one grid: the points share one pool,
  // yet every run equals the serial registry call for its seed.
  const std::pair<const char*, std::int32_t> cells[] = {
      {"anneal", 400}, {"heft", 800}, {"ga", 2000}};
  SweepSpec spec;
  spec.name = "mixed";
  spec.runs_per_point = 2;
  spec.deadline = app.deadline;
  for (const auto& [mapper, clbs] : cells) {
    Architecture device = make_cpu_fpga_architecture(
        clbs, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
    spec.points.emplace_back(mapper, clbs, std::move(device), small_config(),
                             mapper);
  }

  std::vector<SweepResult> results;
  for (const unsigned threads : {1u, 2u, 8u}) {
    results.push_back(SweepEngine(threads).run(app.graph, spec));
  }
  for (std::size_t p = 0; p < spec.points.size(); ++p) {
    const SweepPoint& point = spec.points[p];
    const auto mapper = make_mapper(point.mapper);
    for (std::size_t r = 0; r < 2; ++r) {
      ExplorerConfig c = point.config;
      c.seed = point.config.seed + r;
      const MapperResult serial = mapper->run(app.graph, point.arch, c);
      for (const SweepResult& sweep : results) {
        ASSERT_EQ(sweep.points[p].runs.size(), 2u);
        EXPECT_EQ(sweep.points[p].mapper, point.mapper);
        expect_run_equal(sweep.points[p].runs[r], serial);
      }
    }
    expect_aggregate_equal(results[1].points[p].aggregate,
                           results[0].points[p].aggregate);
    expect_aggregate_equal(results[2].points[p].aggregate,
                           results[0].points[p].aggregate);
  }
}

TEST_F(SweepEngineFixture, UnknownMapperFailsBeforeAnyJobRuns) {
  // The first point would fail with "cancelled" as soon as one of its jobs
  // ran; the error must instead name the unknown mapper on the last point.
  CancelToken fired;
  fired.cancel();
  SweepSpec spec = small_device_spec(2);
  spec.points[0].config.cancel = &fired;
  spec.points.back().mapper = "bogus";
  try {
    (void)SweepEngine(2).run(app.graph, spec);
    FAIL() << "an unknown mapper name ran";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'bogus'"), std::string::npos)
        << e.what();
  }
}

TEST_F(SweepEngineFixture, ScheduleSweepCarriesPerPointSchedules) {
  const ScheduleKind kinds[] = {ScheduleKind::kModifiedLam,
                                ScheduleKind::kGreedy};
  const SweepSpec spec =
      schedule_sweep(kinds, arch, small_config(), 2, app.deadline);
  ASSERT_EQ(spec.points.size(), 2u);
  EXPECT_EQ(spec.points[0].label, "modified-lam");
  EXPECT_EQ(spec.points[1].label, "greedy");
  EXPECT_EQ(spec.points[1].config.schedule, ScheduleKind::kGreedy);

  const SweepResult sweep = SweepEngine(4).run(app.graph, spec);
  for (const SweepPointResult& p : sweep.points) {
    ASSERT_EQ(p.runs.size(), 2u);
    EXPECT_GT(p.aggregate.mean_makespan_ms, 0.0);
    EXPECT_LE(p.aggregate.best_makespan_ms, 76.4);
  }
  // Different schedules must actually have cooled differently.
  EXPECT_NE(sweep.points[0].runs[0].counters.at("accepted").as_int(),
            sweep.points[1].runs[0].counters.at("accepted").as_int());
}

TEST_F(SweepEngineFixture, ExceptionFromFailingRunJobPropagates) {
  const SweepEngine engine(4);

  // A run job whose Explorer construction fails (no processor in the
  // architecture): the pool must deliver the Error to the caller.
  SweepSpec spec = small_device_spec(2);
  Architecture no_cpu{Bus(1'000)};
  no_cpu.add_reconfigurable("fpga0", 100, 10);
  spec.points[1].arch = no_cpu;
  EXPECT_THROW((void)engine.run(app.graph, spec), Error);

  // A run job that fails mid-flight (negative iteration budget rejected by
  // the annealer) propagates out of a one-point batch the same way.
  ExplorerConfig bad = small_config();
  bad.iterations = -5;
  EXPECT_THROW((void)engine.run(app.graph, one_point_spec(bad, 2)), Error);
}

TEST_F(SweepEngineFixture, SweepReportAndJsonArtifactAgree) {
  const SweepSpec spec = small_device_spec(2);
  const SweepResult sweep = SweepEngine(4).run(app.graph, spec);

  const std::string table = describe_sweep(sweep);
  EXPECT_NE(table.find("device-size"), std::string::npos);
  EXPECT_NE(table.find("400 CLBs"), std::string::npos);
  EXPECT_NE(table.find("hit rate"), std::string::npos);
  EXPECT_NE(plot_sweep(sweep).find("FPGA size (CLBs)"), std::string::npos);

  JsonValue doc = sweep_to_json(sweep);
  EXPECT_TRUE(validate_sweep_json(doc).empty());

  // The artifact is a pure function of the spec: a serial engine writes the
  // same bytes as a four-thread one (no thread count, no wall clock).
  EXPECT_EQ(sweep_to_json(SweepEngine(1).run(app.graph, spec)).dump(),
            doc.dump());

  // The artifact round-trips through text bit-exactly on every statistic.
  const JsonValue parsed = JsonValue::parse(doc.dump(2));
  EXPECT_TRUE(validate_sweep_json(parsed).empty());
  ASSERT_EQ(parsed.at("points").size(), 2u);
  const JsonValue& p0 = parsed.at("points").items()[0];
  EXPECT_EQ(p0.at("label").as_string(), "400 CLBs");
  EXPECT_EQ(p0.at("runs").as_int(), 2);
  EXPECT_EQ(p0.at("mean_makespan_ms").as_number(),
            sweep.points[0].aggregate.mean_makespan_ms);
  EXPECT_EQ(p0.at("deadline_hit_rate").as_number(),
            sweep.points[0].aggregate.deadline_hit_rate);

  const std::string rendered = render_sweep_artifact(parsed);
  EXPECT_NE(rendered.find("400 CLBs"), std::string::npos);
  EXPECT_NE(rendered.find("device-size"), std::string::npos);

  // Artifacts written before the volatile fields were dropped still carry
  // "threads", "wall_seconds" and "mean_wall_seconds"; they stay valid and
  // render the same table.
  JsonValue legacy = JsonValue::parse(doc.dump());
  legacy.set("threads", std::int64_t{4});
  legacy.set("wall_seconds", 0.25);
  JsonValue legacy_points = JsonValue::array();
  for (const JsonValue& point : legacy.at("points").items()) {
    JsonValue p = JsonValue::parse(point.dump());
    p.set("mean_wall_seconds", 0.125);
    legacy_points.push_back(std::move(p));
  }
  legacy.set("points", std::move(legacy_points));
  EXPECT_TRUE(validate_sweep_json(legacy).empty());
  EXPECT_EQ(render_sweep_artifact(legacy), rendered);

  // Schema violations are reported, not silently accepted.
  JsonValue broken = JsonValue::parse(doc.dump());
  broken.set("schema", "rdse.sweep.v0");
  EXPECT_FALSE(validate_sweep_json(broken).empty());
  EXPECT_FALSE(validate_sweep_json(JsonValue::object()).empty());

  // Absurd run counts are schema violations, not undefined casts.
  JsonValue huge = JsonValue::parse(doc.dump());
  JsonValue bad_point = JsonValue::parse(huge.at("points").items()[0].dump());
  bad_point.set("runs", 1e300);
  JsonValue bad_points = JsonValue::array();
  bad_points.push_back(std::move(bad_point));
  huge.set("points", std::move(bad_points));
  EXPECT_FALSE(validate_sweep_json(huge).empty());
}

}  // namespace
}  // namespace rdse
