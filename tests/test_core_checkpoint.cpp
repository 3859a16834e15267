/// Checkpoint/resume suite for durable explorations: the rdse.checkpoint.v1
/// envelope, architecture/metrics/config codecs, and the bit-identity
/// contract — a run resumed from a checkpoint taken at *any* barrier is
/// byte-for-byte the run that was never interrupted, serial and parallel,
/// for any thread count. Storage faults (util/faultfs) must degrade to "no
/// new checkpoint, previous file intact", never to a corrupt resume. Runs
/// under ASan and TSan in CI.

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/explorer.hpp"
#include "model/generators.hpp"
#include "model/motion_detection.hpp"
#include "util/faultfs.hpp"
#include "util/hash.hpp"

namespace rdse {
namespace {

Application make_app(std::uint64_t seed, std::size_t n) {
  AppGenParams params;
  params.dag.node_count = n;
  params.dag.max_width = 4;
  params.hw_capable_fraction = 0.85;
  Rng rng(seed);
  return random_application(params, rng);
}

std::string ckpt_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  ::unlink(path.c_str());
  ::unlink((path + ".tmp").c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::trunc);
  out << text;
}

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

/// Full bit-identity check between two run results (trace and wall time
/// excluded — they are explicitly outside the checkpoint contract).
void expect_results_equal(const RunResult& got, const RunResult& ref) {
  EXPECT_EQ(got.anneal.initial_cost, ref.anneal.initial_cost);
  EXPECT_EQ(got.anneal.best_cost, ref.anneal.best_cost);
  EXPECT_EQ(got.anneal.final_cost, ref.anneal.final_cost);
  EXPECT_EQ(got.anneal.iterations_run, ref.anneal.iterations_run);
  EXPECT_EQ(got.anneal.accepted, ref.anneal.accepted);
  EXPECT_EQ(got.anneal.rejected, ref.anneal.rejected);
  EXPECT_EQ(got.anneal.infeasible, ref.anneal.infeasible);
  EXPECT_EQ(got.anneal.best_iteration, ref.anneal.best_iteration);
  EXPECT_EQ(got.anneal.schedule_name, ref.anneal.schedule_name);
  expect_metrics_equal(got.best_metrics, ref.best_metrics);
  expect_metrics_equal(got.initial_metrics, ref.initial_metrics);
  EXPECT_TRUE(got.best_solution == ref.best_solution);
  for (std::size_t k = 0; k < kMoveKindCount; ++k) {
    EXPECT_EQ(got.move_stats[k].drawn, ref.move_stats[k].drawn) << k;
    EXPECT_EQ(got.move_stats[k].accepted, ref.move_stats[k].accepted) << k;
    EXPECT_EQ(got.move_stats[k].evaluated, ref.move_stats[k].evaluated) << k;
  }
}

// ------------------------------------------------------------------ codecs

TEST(CheckpointCodec, ArchitectureRoundTripsWithTombstones) {
  Architecture arch = make_cpu_fpga_architecture(777, 1234, 5'000'000);
  arch.add_processor("dsp", 250.0, 1.5);
  const ResourceId doomed = arch.add_processor("doomed", 10.0, 0.25);
  arch.add_asic("asic");
  arch.remove(doomed);  // a tombstone in the middle of the table

  const JsonValue doc = architecture_to_json(arch);
  const Architecture back = architecture_from_json(doc);
  // Resource ids — which solutions hold — must be stable across the cycle.
  ASSERT_EQ(back.slot_count(), arch.slot_count());
  EXPECT_EQ(back.resource_count(), arch.resource_count());
  EXPECT_FALSE(back.alive(doomed));
  EXPECT_EQ(back.total_price(), arch.total_price());
  EXPECT_EQ(back.bus().bytes_per_second(), arch.bus().bytes_per_second());
  const auto& rc = back.reconfigurable(1);
  EXPECT_EQ(rc.n_clbs(), arch.reconfigurable(1).n_clbs());
  EXPECT_EQ(rc.tr_per_clb(), arch.reconfigurable(1).tr_per_clb());
  // And the re-encoded JSON is byte-stable (codec is deterministic).
  EXPECT_EQ(architecture_to_json(back).dump(), doc.dump());
}

TEST(CheckpointCodec, ConfigRoundTripPreservesTheTrajectoryShape) {
  ExplorerConfig config;
  config.seed = 0xDEADBEEFCAFE1234ull;  // needs the hex codec, not double
  config.iterations = 12'345;
  config.warmup_iterations = 678;
  config.schedule = ScheduleKind::kGreedy;
  config.init = InitKind::kAllSoftware;
  config.moves.p_zero = 0.07;
  config.cost.price_weight = 0.25;
  config.adaptive_move_mix = true;
  config.batch = 4;
  config.freeze_after = 999;

  const ExplorerConfig back =
      explorer_config_from_json(explorer_config_to_json(config));
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.iterations, config.iterations);
  EXPECT_EQ(back.warmup_iterations, config.warmup_iterations);
  EXPECT_EQ(back.schedule, config.schedule);
  EXPECT_EQ(back.init, config.init);
  EXPECT_EQ(back.moves.p_zero, config.moves.p_zero);
  EXPECT_EQ(back.cost.price_weight, config.cost.price_weight);
  EXPECT_EQ(back.adaptive_move_mix, config.adaptive_move_mix);
  EXPECT_EQ(back.batch, config.batch);
  EXPECT_EQ(back.freeze_after, config.freeze_after);
  EXPECT_FALSE(back.record_trace);  // traces are never resumed
}

TEST(CheckpointCodec, ParallelConfigRoundTripDropsThreads) {
  ParallelExplorerConfig config;
  config.seed = 99;
  config.replicas = 5;
  config.threads = 7;  // throughput knob: not part of the trajectory
  config.exchange_interval = 250;
  config.replica_schedules = {ScheduleKind::kModifiedLam,
                              ScheduleKind::kGreedy};
  const ParallelExplorerConfig back = parallel_explorer_config_from_json(
      parallel_explorer_config_to_json(config));
  EXPECT_EQ(back.seed, config.seed);
  EXPECT_EQ(back.replicas, config.replicas);
  EXPECT_EQ(back.exchange_interval, config.exchange_interval);
  EXPECT_EQ(back.replica_schedules, config.replica_schedules);
  EXPECT_EQ(back.threads, 0u);
}

// ---------------------------------------------------------------- envelope

TEST(CheckpointEnvelope, SaveLoadRoundTrip) {
  const std::string path = ckpt_path("ckpt-roundtrip.json");
  JsonValue body = JsonValue::object();
  body.set("kind", "unit-test");
  body.set("value", 42.0);
  ASSERT_TRUE(save_checkpoint(path, body));
  const JsonValue back = load_checkpoint(path);
  EXPECT_EQ(back.dump(), body.dump());
}

TEST(CheckpointEnvelope, MissingFileThrows) {
  EXPECT_THROW((void)load_checkpoint(ckpt_path("ckpt-missing.json")), Error);
}

TEST(CheckpointEnvelope, TruncatedFileThrows) {
  const std::string path = ckpt_path("ckpt-truncated.json");
  JsonValue body = JsonValue::object();
  body.set("kind", "unit-test");
  ASSERT_TRUE(save_checkpoint(path, body));
  const std::string text = read_file(path);
  write_file(path, text.substr(0, text.size() / 2));  // torn tail
  EXPECT_THROW((void)load_checkpoint(path), Error);
}

TEST(CheckpointEnvelope, ForeignFormatTagThrows) {
  const std::string path = ckpt_path("ckpt-foreign.json");
  JsonValue body = JsonValue::object();
  body.set("kind", "unit-test");
  ASSERT_TRUE(save_checkpoint(path, body));
  std::string text = read_file(path);
  const std::size_t at = text.find("rdse.checkpoint.v1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 18, "rdse.checkpoint.v9");
  write_file(path, text);
  EXPECT_THROW((void)load_checkpoint(path), Error);
}

TEST(CheckpointEnvelope, FlippedBodyBitFailsTheChecksum) {
  const std::string path = ckpt_path("ckpt-tampered.json");
  JsonValue body = JsonValue::object();
  body.set("kind", "honest");
  ASSERT_TRUE(save_checkpoint(path, body));
  std::string text = read_file(path);
  const std::size_t at = text.find("honest");
  ASSERT_NE(at, std::string::npos);
  text[at] = 'H';  // one flipped bit of body
  write_file(path, text);
  EXPECT_THROW((void)load_checkpoint(path), Error);
}

// ------------------------------------------------------- serial bit-identity

/// One serial scenario: run the reference uninterrupted Explorer::run, then
/// a checkpointed session cut into `segment` -iteration slices with a full
/// JSON round trip (save_state -> dump -> parse -> resume) at every cut.
void check_serial_identity(std::uint64_t seed, std::size_t tasks,
                           std::int64_t segment, ScheduleKind schedule) {
  const Application app = make_app(seed * 131 + 7, tasks);
  Architecture arch =
      make_cpu_fpga_architecture(600, from_us(15.0), 20'000'000);
  ExplorerConfig config;
  config.seed = seed;
  config.iterations = 1'200;
  config.warmup_iterations = 200;
  config.schedule = schedule;
  config.record_trace = false;
  if (seed % 2 == 0) config.adaptive_move_mix = true;
  if (seed % 3 == 0) config.batch = 3;

  const Explorer reference(app.graph, arch);
  const RunResult ref = reference.run(config);

  CheckpointableExplorer session(app.graph, arch, config);
  while (!session.finished()) {
    (void)session.step(segment);
    if (session.finished()) break;
    // Serialize through actual JSON text, as the checkpoint file would.
    const JsonValue state = JsonValue::parse(session.save_state().dump());
    session = CheckpointableExplorer(app.graph, arch, state);
  }
  expect_results_equal(session.result(), ref);
}

TEST(CheckpointSerial, ResumeIsBitIdenticalAcrossGraphsAndCutPoints) {
  // Random graphs x checkpoint granularities x schedules; every cut point
  // crosses the warm-up/cooling boundary at least once (segment 150 cuts
  // mid-warm-up, 500 cuts right after it, 5000 never cuts).
  const ScheduleKind schedules[] = {ScheduleKind::kModifiedLam,
                                    ScheduleKind::kGreedy,
                                    ScheduleKind::kLamDelosme};
  int scenario = 0;
  for (const std::uint64_t seed : {3u, 14u, 159u}) {
    for (const std::int64_t segment : {150, 500, 5'000}) {
      const ScheduleKind schedule = schedules[scenario % 3];
      check_serial_identity(seed, 12 + (seed % 5) * 4, segment, schedule);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "seed " << seed << " segment " << segment;
      ++scenario;
    }
  }
  EXPECT_EQ(scenario, 9);
}

TEST(CheckpointSerial, StepReportsProgressAndFinish) {
  const Application app = make_app(42, 14);
  Architecture arch =
      make_cpu_fpga_architecture(500, from_us(15.0), 20'000'000);
  ExplorerConfig config;
  config.seed = 7;
  config.iterations = 300;
  config.warmup_iterations = 100;
  config.record_trace = false;
  CheckpointableExplorer session(app.graph, arch, config);
  std::int64_t total = 0;
  while (!session.finished()) {
    const std::int64_t ran = session.step(64);
    ASSERT_GT(ran, 0);
    ASSERT_LE(ran, 64);
    total += ran;
  }
  EXPECT_EQ(total, config.iterations + config.warmup_iterations);
  EXPECT_EQ(session.step(64), 0);  // finished session: a no-op
}

TEST(CheckpointSerial, ArchitectureExplorationStateIsPinned) {
  // The codec of an explored platform, byte for byte against an earlier
  // build: motion with resource moves (p_zero) and a price weight, stopped
  // at iteration 500, where the best system has tombstoned slots, two
  // reconfigurable circuits and an ASIC.
  const Application app = make_motion_detection_app();
  const Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  ExplorerConfig config;
  config.seed = 2;
  config.iterations = 1'500;
  config.warmup_iterations = 200;
  config.batch = 3;
  config.adaptive_move_mix = true;
  config.moves.p_zero = 0.05;
  config.cost.price_weight = 0.02;
  config.record_trace = false;
  CheckpointableExplorer session(app.graph, arch, config);
  ASSERT_EQ(session.step(500), 500);

  const JsonValue state = session.save_state();
  const Architecture best =
      architecture_from_json(state.at("problem").at("best_architecture"));
  EXPECT_LT(best.resource_count(), best.slot_count());  // a tombstone
  EXPECT_FALSE(best.ids_of(ResourceKind::kAsic).empty());
  EXPECT_EQ(fnv1a64_hex(state.dump()), "48335b6a206e2ad6");
  EXPECT_EQ(
      architecture_to_json(best).dump(),
      R"({"bus_bytes_per_second": 5e+07, "slots": [{"kind": "processor", )"
      R"("name": "cpu0", "price": 100, "speed_factor": 1}, null, null, )"
      R"(null, null, {"kind": "reconfigurable", "name": "fpga5", "price": )"
      R"(150, "n_clbs": 2000, "tr_per_clb": 22500}, null, {"kind": )"
      R"("reconfigurable", "name": "fpga7", "price": 150, "n_clbs": 2000, )"
      R"("tr_per_clb": 22500}, {"kind": "asic", "name": "asic8", "price": )"
      R"(400}, null, null]})");
}

// ----------------------------------------------------- parallel bit-identity

TEST(CheckpointParallel, ResumeIsBitIdenticalForAnyThreadCount) {
  const Application app = make_app(4711, 16);
  Architecture arch =
      make_cpu_fpga_architecture(700, from_us(15.0), 20'000'000);
  ParallelExplorerConfig config;
  config.seed = 5;
  config.replicas = 3;
  config.iterations = 900;
  config.warmup_iterations = 150;
  config.exchange_interval = 300;
  config.replica_schedules = {ScheduleKind::kModifiedLam,
                              ScheduleKind::kGreedy};
  config.record_trace = false;

  const ParallelExplorer reference(app.graph, arch);
  const ParallelRunResult ref = reference.run(config);
  ASSERT_GT(ref.exchange_rounds, 0);

  for (const unsigned threads : {1u, 2u, 4u}) {
    for (const int cut_after : {1, 2}) {  // resume after the nth barrier
      CheckpointableParallelExplorer session(app.graph, arch, config);
      int steps = 0;
      while (!session.finished()) {
        ASSERT_TRUE(session.step());
        if (!session.finished() && ++steps == cut_after) {
          const JsonValue state =
              JsonValue::parse(session.save_state().dump());
          session = CheckpointableParallelExplorer(app.graph, arch, state,
                                                   threads);
        }
      }
      EXPECT_FALSE(session.step());
      const ParallelRunResult got = session.result();
      EXPECT_EQ(got.best_replica, ref.best_replica)
          << threads << "t cut " << cut_after;
      EXPECT_EQ(got.exchange_rounds, ref.exchange_rounds);
      EXPECT_EQ(got.adoptions, ref.adoptions);
      ASSERT_EQ(got.replicas.size(), ref.replicas.size());
      for (std::size_t r = 0; r < ref.replicas.size(); ++r) {
        EXPECT_EQ(got.replicas[r].seed, ref.replicas[r].seed) << r;
        EXPECT_EQ(got.replicas[r].best_cost, ref.replicas[r].best_cost) << r;
        EXPECT_EQ(got.replicas[r].adoptions, ref.replicas[r].adoptions) << r;
        EXPECT_EQ(got.replicas[r].anneal.accepted,
                  ref.replicas[r].anneal.accepted)
            << r;
      }
      expect_results_equal(got.best, ref.best);
    }
  }
}

/// Trace rows are compared field by field: the session records them itself.
void expect_traces_equal(const Trace& got, const Trace& ref) {
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(got.at(i).iteration, ref.at(i).iteration) << i;
    EXPECT_EQ(got.at(i).cost, ref.at(i).cost) << i;
    EXPECT_EQ(got.at(i).best, ref.at(i).best) << i;
    EXPECT_EQ(got.at(i).n_contexts, ref.at(i).n_contexts) << i;
    EXPECT_EQ(got.at(i).accepted, ref.at(i).accepted) << i;
    EXPECT_EQ(got.at(i).warmup, ref.at(i).warmup) << i;
  }
}

TEST(CheckpointSerial, SessionTraceHonoursStrideAcrossMoveAssignment) {
  const Application app = make_app(77, 14);
  Architecture arch =
      make_cpu_fpga_architecture(500, from_us(15.0), 20'000'000);
  ExplorerConfig config;
  config.seed = 9;
  config.iterations = 400;
  config.warmup_iterations = 100;
  config.trace_stride = 7;
  const RunResult ref = Explorer(app.graph, arch).run(config);
  ASSERT_EQ(ref.trace.size(), 72u);  // iterations 0, 7, ..., 497

  CheckpointableExplorer session(app.graph, arch, config);
  (void)session.step(123);
  CheckpointableExplorer moved(app.graph, arch, config);
  moved = std::move(session);  // the trace must follow the moved state
  while (!moved.finished()) (void)moved.step(50);
  const RunResult got = moved.result();
  expect_traces_equal(got.trace, ref.trace);
  expect_results_equal(got, ref);

  // Traces are not persisted: a resumed session records none.
  CheckpointableExplorer fresh(app.graph, arch, config);
  (void)fresh.step(200);
  CheckpointableExplorer resumed(app.graph, arch, fresh.save_state());
  while (!resumed.finished()) (void)resumed.step(1'000);
  EXPECT_TRUE(resumed.result().trace.empty());
  expect_results_equal(resumed.result(), ref);
}

TEST(CheckpointSerial, ResumeRejectsNegativeIterationCounts) {
  const Application app = make_app(31, 12);
  Architecture arch =
      make_cpu_fpga_architecture(500, from_us(15.0), 20'000'000);
  ExplorerConfig config;
  config.iterations = 300;
  config.warmup_iterations = 50;
  config.record_trace = false;
  CheckpointableExplorer session(app.graph, arch, config);
  (void)session.step(100);
  JsonValue state = session.save_state();
  state.find("config")->set("iterations", -1);
  EXPECT_THROW(CheckpointableExplorer(app.graph, arch, state), Error);
}

TEST(CheckpointParallel, SessionTracesMatchTheFacadeAcrossMoves) {
  const Application app = make_app(808, 14);
  Architecture arch =
      make_cpu_fpga_architecture(600, from_us(15.0), 20'000'000);
  ParallelExplorerConfig config;
  config.seed = 12;
  config.replicas = 3;
  config.threads = 2;
  config.iterations = 600;
  config.warmup_iterations = 100;
  config.exchange_interval = 200;
  config.record_trace = true;
  config.trace_stride = 5;
  const ParallelRunResult ref = ParallelExplorer(app.graph, arch).run(config);

  CheckpointableParallelExplorer session(app.graph, arch, config);
  ASSERT_TRUE(session.step());
  CheckpointableParallelExplorer moved(std::move(session));
  CheckpointableParallelExplorer target(app.graph, arch, config);
  target = std::move(moved);
  while (target.step()) {
  }
  const ParallelRunResult got = target.result();
  ASSERT_EQ(got.replicas.size(), ref.replicas.size());
  for (std::size_t r = 0; r < ref.replicas.size(); ++r) {
    EXPECT_EQ(got.replicas[r].trace.size(), 140u) << r;  // 700 / 5
    expect_traces_equal(got.replicas[r].trace, ref.replicas[r].trace);
  }
  EXPECT_EQ(got.best_replica, ref.best_replica);
  expect_traces_equal(got.best.trace, ref.best.trace);
  expect_results_equal(got.best, ref.best);
}

TEST(CheckpointParallel, ResumeRejectsAZeroReplicaState) {
  // The replica-count check alone passes this edit (0 == 0); the config
  // check every session runs must reject it before result() would read a
  // replica that does not exist.
  const Application app = make_app(4711, 12);
  Architecture arch =
      make_cpu_fpga_architecture(700, from_us(15.0), 20'000'000);
  ParallelExplorerConfig config;
  config.replicas = 2;
  config.iterations = 300;
  config.warmup_iterations = 50;
  config.exchange_interval = 100;
  CheckpointableParallelExplorer session(app.graph, arch, config);
  ASSERT_TRUE(session.step());
  JsonValue state = session.save_state();
  state.find("config")->set("replicas", 0);
  state.set("replicas", JsonValue::array());
  EXPECT_THROW(CheckpointableParallelExplorer(app.graph, arch, state), Error);

  state.find("config")->set("replicas", 2);
  state.find("config")->set("exchange_interval", -1);
  state.set("replicas", session.save_state().at("replicas"));
  EXPECT_THROW(CheckpointableParallelExplorer(app.graph, arch, state), Error);
}

// ------------------------------------------------------- integer fields

/// The diagnostic a resume of `state` fails with.
template <typename Session>
std::string resume_error(const TaskGraph& tg, const Architecture& arch,
                         const JsonValue& state) {
  try {
    const Session session(tg, arch, state);
  } catch (const Error& e) {
    return e.what();
  }
  return "(resumed)";
}

/// A serial state 100 iterations into a run on a 2000-CLB device.
JsonValue serial_state(const TaskGraph& tg, const Architecture& arch) {
  ExplorerConfig config;
  config.iterations = 300;
  config.warmup_iterations = 50;
  config.record_trace = false;
  CheckpointableExplorer session(tg, arch, config);
  (void)session.step(100);
  return session.save_state();
}

// Each edit below narrowed to 32 bits is a valid field, so a decoder that
// casts would resume a different run instead of failing.
TEST(CheckpointIntegers, AWrappedClbCountIsRejected) {
  // 4294969296 = 2^32 + 2000, beside the 2000-CLB price (150).
  const Application app = make_app(31, 12);
  const Architecture arch =
      make_cpu_fpga_architecture(2000, from_us(15.0), 20'000'000);
  JsonValue state = serial_state(app.graph, arch);
  JsonValue& current = *state.find("problem")->find("current_architecture");
  JsonValue& slot = current.find("slots")->items()[1];
  ASSERT_EQ(slot.at("n_clbs").as_int(), 2000);
  slot.set("n_clbs", std::int64_t{4'294'969'296});
  EXPECT_EQ(resume_error<CheckpointableExplorer>(app.graph, arch, state),
            "checkpoint: 'n_clbs' must be an integer in [1, 2147483647], "
            "got 4294969296");
}

TEST(CheckpointIntegers, AWrappedBatchIsRejected) {
  // 4294967298 = 2^32 + 2 would resume at K = 2.
  const Application app = make_app(31, 12);
  const Architecture arch =
      make_cpu_fpga_architecture(2000, from_us(15.0), 20'000'000);
  JsonValue state = serial_state(app.graph, arch);
  state.find("config")->set("batch", std::int64_t{4'294'967'298});
  EXPECT_EQ(resume_error<CheckpointableExplorer>(app.graph, arch, state),
            "checkpoint: 'batch' must be an integer in [1, 2147483647], "
            "got 4294967298");
}

TEST(CheckpointIntegers, AWrappedContextCountIsRejected) {
  const Application app = make_app(31, 12);
  const Architecture arch =
      make_cpu_fpga_architecture(2000, from_us(15.0), 20'000'000);
  JsonValue state = serial_state(app.graph, arch);
  state.find("initial_metrics")->set("n_contexts", std::int64_t{1} << 32);
  EXPECT_EQ(resume_error<CheckpointableExplorer>(app.graph, arch, state),
            "checkpoint: 'n_contexts' must be an integer in [0, 2147483647], "
            "got 4294967296");
}

TEST(CheckpointIntegers, AWrappedReplicaCountIsRejected) {
  // 4294967297 = 2^32 + 1 beside one replica entry would resume a
  // one-replica run.
  const Application app = make_app(4711, 12);
  const Architecture arch =
      make_cpu_fpga_architecture(700, from_us(15.0), 20'000'000);
  ParallelExplorerConfig config;
  config.replicas = 1;
  config.iterations = 300;
  config.warmup_iterations = 50;
  config.exchange_interval = 100;
  CheckpointableParallelExplorer session(app.graph, arch, config);
  ASSERT_TRUE(session.step());
  JsonValue state = session.save_state();
  state.find("config")->set("replicas", std::int64_t{4'294'967'297});
  EXPECT_EQ(
      resume_error<CheckpointableParallelExplorer>(app.graph, arch, state),
      "checkpoint: 'replicas' must be an integer in [1, 2147483647], got "
      "4294967297");
}

// -------------------------------------------------------- storage faults

class CheckpointFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { faultfs::clear(); }
  void TearDown() override { faultfs::clear(); }
};

TEST_F(CheckpointFaultTest, EveryFaultDegradesToThePreviousCheckpoint) {
  // The acceptance gate: under each injected storage fault save_checkpoint
  // reports failure, the previous file stays loadable, and a run resumed
  // from it is bit-identical — a fault costs re-done work, never a corrupt
  // resume.
  const Application app = make_app(2026, 14);
  Architecture arch =
      make_cpu_fpga_architecture(500, from_us(15.0), 20'000'000);
  ExplorerConfig config;
  config.seed = 11;
  config.iterations = 600;
  config.warmup_iterations = 100;
  config.record_trace = false;
  const RunResult ref = Explorer(app.graph, arch).run(config);

  const char* specs[] = {"fail_write:1", "short_write:1", "fail_fsync:1",
                         "fail_rename:1"};
  for (const char* spec : specs) {
    const std::string path = ckpt_path("ckpt-fault.json");
    CheckpointableExplorer session(app.graph, arch, config);
    (void)session.step(200);
    ASSERT_TRUE(save_checkpoint(path, session.save_state())) << spec;
    const std::string good = read_file(path);

    (void)session.step(200);
    faultfs::set_plan(faultfs::parse_plan(spec));
    EXPECT_FALSE(save_checkpoint(path, session.save_state())) << spec;
    EXPECT_GE(faultfs::counters().faults_fired, 1u) << spec;
    faultfs::clear();

    // The failed save left the previous checkpoint byte-identical, the
    // temp file cleaned up, and the resume path fully working.
    EXPECT_EQ(read_file(path), good) << spec;
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0) << spec;
    CheckpointableExplorer resumed(app.graph, arch, load_checkpoint(path));
    while (!resumed.finished()) (void)resumed.step(10'000);
    expect_results_equal(resumed.result(), ref);
  }
}

TEST_F(CheckpointFaultTest, TornRenameIsRejectedLoudlyNotResumed) {
  // A torn rename commits a truncated file. Unlike the cache (where a
  // truncated tail degrades to misses), a truncated checkpoint must be
  // rejected outright — resuming half a state would corrupt the run.
  const std::string path = ckpt_path("ckpt-torn.json");
  JsonValue body = JsonValue::object();
  body.set("kind", "unit-test");
  JsonValue filler = JsonValue::array();
  for (int i = 0; i < 64; ++i) filler.push_back(std::string(32, 'x'));
  body.set("filler", std::move(filler));

  faultfs::FaultPlan plan;
  plan.torn_rename_nth = 1;
  faultfs::set_plan(plan);
  EXPECT_FALSE(save_checkpoint(path, body));
  faultfs::clear();

  EXPECT_EQ(::access(path.c_str(), F_OK), 0);  // half the file landed...
  EXPECT_THROW((void)load_checkpoint(path), Error);  // ...and is rejected
}

TEST_F(CheckpointFaultTest, SaveStateItselfNeverPerturbsTheRun) {
  // save_state() is a pure observer: interleaving saves (even failing
  // ones) between steps must not change the trajectory.
  const Application app = make_app(909, 14);
  Architecture arch =
      make_cpu_fpga_architecture(500, from_us(15.0), 20'000'000);
  ExplorerConfig config;
  config.seed = 23;
  config.iterations = 500;
  config.warmup_iterations = 100;
  config.record_trace = false;
  const RunResult ref = Explorer(app.graph, arch).run(config);

  const std::string path = ckpt_path("ckpt-observer.json");
  CheckpointableExplorer session(app.graph, arch, config);
  int saves = 0;
  while (!session.finished()) {
    (void)session.step(75);
    if (++saves % 2 == 0) {  // every other save fails
      faultfs::FaultPlan plan;
      plan.fail_fsync_nth = 1;
      faultfs::set_plan(plan);
    }
    (void)save_checkpoint(path, session.save_state());
    faultfs::clear();
  }
  expect_results_equal(session.result(), ref);
}

}  // namespace
}  // namespace rdse
