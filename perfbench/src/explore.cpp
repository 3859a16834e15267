/// \file explore.cpp
/// \brief The exploration workloads: paper-motion, large-graph and
/// replica-exchange, plus the traced per-layer split of the core, sched,
/// anneal, model and baseline layers.
///
/// Untraced runs time whole `Explorer::run` / `ParallelExplorer::run`
/// calls. The traced run re-executes the same seeds through the public
/// pieces `Explorer::run` is made of — a `DseProblem` driven by an
/// `AnnealEngine` in short segments — with a timing proxy between the two,
/// and checks that the result is bit-identical to the untraced call.

#include <time.h>

#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/architecture.hpp"
#include "baseline/mapper.hpp"
#include "core/explorer.hpp"
#include "core/parallel_explorer.hpp"
#include "core/problem.hpp"
#include "mapping/validation.hpp"
#include "model/registry.hpp"
#include "sched/evaluator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using rdse::AnnealConfig;
using rdse::AnnealEngine;
using rdse::AnnealProblem;
using rdse::AnnealResult;
using rdse::Architecture;
using rdse::DseProblem;
using rdse::Explorer;
using rdse::ExplorerConfig;
using rdse::InitKind;
using rdse::Metrics;
using rdse::ModelSpec;
using rdse::ParallelExplorer;
using rdse::ParallelExplorerConfig;
using rdse::ParallelRunResult;
using rdse::RunResult;
using rdse::ScheduleKind;
using rdse::Solution;

/// Fixed shape of one exploration workload. The benchmark seed only picks
/// the per-operation annealing seeds.
struct ExploreSpec {
  const char* name;
  const char* model;
  std::int32_t clbs;
  std::int64_t iterations;  ///< cooling iterations per run
  std::int64_t warmup;      ///< infinite-temperature iterations per run
  InitKind init;
  int makespan_ops;  ///< first timed runs averaged into makespan_ms
  /// Best makespan (ms) a single stepped run must reach: time_to_target.
  double target_ms;
  int replicas;  ///< 0: serial Explorer::run; else ParallelExplorer
  unsigned threads;
  /// Model of the baseline-mapper layer probe (null: `model`).
  const char* baseline_model;
};

const ExploreSpec kSpecs[] = {
    // §5: 28 tasks, 2000 CLBs, 1200 warm-up + 20000 cooling iterations.
    {"paper-motion", "motion", 2000, 20'000, 1'200,
     InitKind::kRandomPartition, 200, 25.0, 0, 1, nullptr},
    // 5000 tasks from one fixed all-software start (see README).
    {"large-graph", "synthetic:5000", 2000, 800, 300, InitKind::kAllSoftware,
     12, 21'125.0, 0, 1, nullptr},
    // 4 replicas on a {modified-lam, greedy} ladder, 2 threads.
    {"replica-exchange", "synthetic:500", 2000, 12'000, 1'200,
     InitKind::kAllSoftware, 40, 2'000.0, 4, 2, nullptr},
    // serve-mix's explore-side layers (traced run only): its short motion
    // anneal requests, and the deterministic mappers on its largest model.
    {"serve-mix", "motion", 2000, 1'500, 200, InitKind::kRandomPartition, 50,
     60.0, 0, 1, "synthetic:120"},
};

const ExploreSpec& find_spec(const std::string& name) {
  for (const ExploreSpec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::runtime_error("unknown explore workload '" + name + "'");
}

constexpr std::uint64_t kInitSeedMix = 0x5851F42D4C957F2DULL;  // Explorer

bool same_metrics(const Metrics& a, const Metrics& b) {
  return a.makespan == b.makespan && a.init_reconfig == b.init_reconfig &&
         a.dyn_reconfig == b.dyn_reconfig && a.comm_cross == b.comm_cross &&
         a.sw_busy == b.sw_busy && a.hw_busy == b.hw_busy &&
         a.n_contexts == b.n_contexts && a.sw_tasks == b.sw_tasks &&
         a.hw_tasks == b.hw_tasks && a.clbs_loaded == b.clbs_loaded &&
         a.max_context_clbs == b.max_context_clbs;
}

bool same_anneal(const AnnealResult& a, const AnnealResult& b) {
  return a.initial_cost == b.initial_cost && a.best_cost == b.best_cost &&
         a.final_cost == b.final_cost && a.iterations_run == b.iterations_run &&
         a.accepted == b.accepted && a.rejected == b.rejected &&
         a.infeasible == b.infeasible && a.best_iteration == b.best_iteration;
}

/// Output check of one exploration result: the best solution is valid and
/// the reference evaluator reproduces the reported metrics exactly.
/// Returns an empty string when both hold.
std::string check_result(const rdse::TaskGraph& tg, const Architecture& arch,
                         const Solution& sol, const Metrics& reported) {
  const std::vector<std::string> violations =
      rdse::validate_solution(tg, arch, sol);
  if (!violations.empty()) {
    return "invalid best solution: " + violations.front();
  }
  const rdse::Evaluator ev(tg, arch);
  const std::optional<Metrics> m = ev.evaluate(sol);
  if (!m.has_value()) return "reference evaluator: best solution is cyclic";
  if (!same_metrics(*m, reported)) {
    return "reference evaluator disagrees with the reported best metrics";
  }
  return "";
}

ExplorerConfig explorer_config(const ExploreSpec& spec, std::uint64_t seed) {
  ExplorerConfig c;
  c.seed = seed;
  c.iterations = spec.iterations;
  c.warmup_iterations = spec.warmup;
  c.init = spec.init;
  c.record_trace = false;
  return c;
}

ParallelExplorerConfig parallel_config(const ExploreSpec& spec,
                                       std::uint64_t seed, unsigned threads) {
  ParallelExplorerConfig c;
  c.seed = seed;
  c.replicas = spec.replicas > 0 ? spec.replicas : 4;
  c.threads = threads;
  c.iterations = spec.iterations;
  c.warmup_iterations = spec.warmup;
  c.exchange_interval = 500;
  c.replica_schedules = {ScheduleKind::kModifiedLam, ScheduleKind::kGreedy};
  c.init = spec.init;
  return c;
}

/// Timing proxy between the engine and the problem: every AnnealProblem
/// call is forwarded unchanged and its wall time accumulated.
class TimedProblem final : public AnnealProblem {
 public:
  explicit TimedProblem(DseProblem& inner) : inner_(inner) {}

  [[nodiscard]] double cost() const override { return inner_.cost(); }
  bool propose(rdse::Rng& rng) override {
    const std::int64_t t = now_ns();
    const bool ok = inner_.propose(rng);
    propose_ns += now_ns() - t;
    ++proposes;
    return ok;
  }
  [[nodiscard]] double candidate_cost() const override {
    return inner_.candidate_cost();
  }
  void accept() override {
    const std::int64_t t = now_ns();
    inner_.accept();
    accept_ns += now_ns() - t;
    ++accepts;
  }
  void reject() override {
    const std::int64_t t = now_ns();
    inner_.reject();
    reject_ns += now_ns() - t;
    ++rejects;
  }
  void snapshot_best() override {
    const std::int64_t t = now_ns();
    inner_.snapshot_best();
    snapshot_ns += now_ns() - t;
    ++snapshots;
  }

  std::int64_t propose_ns = 0, proposes = 0;
  std::int64_t accept_ns = 0, accepts = 0;
  std::int64_t reject_ns = 0, rejects = 0;
  std::int64_t snapshot_ns = 0, snapshots = 0;

 private:
  DseProblem& inner_;
};

/// Per-layer sums over every traced (stepped) run.
struct LayerTotals {
  std::int64_t propose_ns = 0, proposes = 0;
  std::int64_t accept_ns = 0, accepts = 0;
  std::int64_t reject_ns = 0, rejects = 0;
  std::int64_t snapshot_ns = 0, snapshots = 0;
  std::int64_t engine_ns = 0;
  std::int64_t iterations = 0;
  std::int64_t accepted = 0;
  std::int64_t drawn = 0, null_draws = 0, infeasible = 0, evaluated = 0;
  std::int64_t m1_drawn = 0, m1_null = 0, m2_drawn = 0, m2_cyclic = 0;
  rdse::IncrementalEvalStats inc;
  std::vector<double> ttt_ms;  ///< per run; runs that missed are failures
  std::vector<double> init_ms;
};

/// One stepped run: the construction sequence of Explorer::run, with the
/// engine advanced in short segments so the best cost can be read between
/// them (segmenting is bit-identical to one call).
struct SteppedRun {
  Metrics best;
  AnnealResult anneal;
  Solution best_solution{0};
  Architecture best_architecture{rdse::Bus(1)};
  double wall_s = 0.0;
  double ttt_s = -1.0;  ///< wall time until best <= target; -1: never
};

SteppedRun stepped_run(const Explorer& explorer, const ExploreSpec& spec,
                       std::uint64_t seed, ScheduleKind schedule,
                       bool profile, Tracer& tracer, std::int64_t parent,
                       LayerTotals* totals) {
  SteppedRun out;
  const std::int64_t t0 = now_ns();
  const std::int64_t init_span = tracer.begin("core.problem_init", parent);
  rdse::Rng init_rng(seed ^ kInitSeedMix);
  DseProblem problem(explorer.task_graph(), explorer.architecture(),
                     explorer.initial_solution(spec.init, init_rng));
  tracer.end(init_span);
  const double init_ms = static_cast<double>(now_ns() - t0) * 1e-6;
  problem.set_incremental_profile(profile);

  TimedProblem proxy(problem);
  AnnealConfig ac;
  ac.seed = seed;
  ac.iterations = spec.iterations;
  ac.warmup_iterations = spec.warmup;
  ac.schedule = schedule;
  const std::int64_t anneal_span = tracer.begin("anneal.run", parent);
  const std::int64_t e0 = now_ns();
  AnnealEngine engine(proxy, ac);
  const std::int64_t segment =
      std::max<std::int64_t>(1, (spec.iterations + spec.warmup) / 256);
  while (engine.run(segment) > 0) {
    if (out.ttt_s < 0.0 && engine.best_cost() <= spec.target_ms) {
      out.ttt_s = seconds_since(t0);
    }
  }
  const std::int64_t engine_ns = now_ns() - e0;
  tracer.end(anneal_span);
  out.anneal = engine.result();
  out.wall_s = seconds_since(t0);
  out.best = problem.best_metrics();
  out.best_solution = problem.best_solution();
  out.best_architecture = problem.best_architecture();

  if (totals != nullptr) {
    LayerTotals& t = *totals;
    t.propose_ns += proxy.propose_ns;
    t.proposes += proxy.proposes;
    t.accept_ns += proxy.accept_ns;
    t.accepts += proxy.accepts;
    t.reject_ns += proxy.reject_ns;
    t.rejects += proxy.rejects;
    t.snapshot_ns += proxy.snapshot_ns;
    t.snapshots += proxy.snapshots;
    t.engine_ns += engine_ns;
    t.iterations += out.anneal.iterations_run;
    t.accepted += out.anneal.accepted;
    const auto& ms = problem.move_stats();
    for (const rdse::MoveClassStats& k : ms) {
      t.drawn += k.drawn;
      t.null_draws += k.null_draws;
      t.infeasible += k.infeasible;
      t.evaluated += k.evaluated;
    }
    const auto m1 = static_cast<std::size_t>(rdse::MoveKind::kReorderSw);
    const auto m2 = static_cast<std::size_t>(rdse::MoveKind::kReassign);
    t.m1_drawn += ms[m1].drawn;
    t.m1_null += ms[m1].null_draws;
    t.m2_drawn += ms[m2].drawn;
    t.m2_cyclic += ms[m2].infeasible;
    if (const auto s = problem.incremental_stats()) {
      t.inc.builds += s->builds;
      t.inc.profile_stage_ns += s->profile_stage_ns;
      t.inc.profile_reconcile_ns += s->profile_reconcile_ns;
      t.inc.profile_context_ns += s->profile_context_ns;
      t.inc.profile_relax_ns += s->profile_relax_ns;
      t.inc.relax.probes += s->relax.probes;
      t.inc.relax.relaxed_nodes += s->relax.relaxed_nodes;
      t.inc.relax.rank_repair_nodes += s->relax.rank_repair_nodes;
      t.inc.relax.makespan_rescans += s->relax.makespan_rescans;
      t.inc.relax.journal_entries += s->relax.journal_entries;
    }
    t.init_ms.push_back(init_ms);
    if (out.ttt_s >= 0.0) t.ttt_ms.push_back(out.ttt_s * 1e3);
  }
  return out;
}

/// The model, platform and explorer of one workload, built the way a
/// caller builds them. The model is heap-held so the explorer's task-graph
/// reference stays valid when the set-up moves.
struct Built {
  std::unique_ptr<ModelSpec> model;
  std::unique_ptr<Explorer> explorer;
  std::unique_ptr<ParallelExplorer> parallel;
};

/// One set-up: model, architecture, explorer and the first DseProblem (its
/// initial full evaluation). Returns the built pieces; `load_ms` and
/// `init_ms` receive the model-load and problem-construction times.
Built build_once(const ExploreSpec& spec, std::uint64_t seed, Tracer& tracer,
                 double& load_ms, double& init_ms) {
  Built b;
  const SpanGuard setup(tracer, "setup");
  std::int64_t t = now_ns();
  {
    const SpanGuard span(tracer, "model.load", setup.id());
    b.model = std::make_unique<ModelSpec>(rdse::load_model_spec(spec.model));
  }
  load_ms = static_cast<double>(now_ns() - t) * 1e-6;
  const Architecture arch = rdse::make_cpu_fpga_architecture(
      spec.clbs, b.model->tr_per_clb, b.model->bus_bytes_per_second);
  std::uint64_t first_seed = seed;
  if (spec.replicas > 0) {
    b.parallel =
        std::make_unique<ParallelExplorer>(b.model->app.graph, arch);
    first_seed = ParallelExplorer::replica_seed(seed, 0);
  }
  b.explorer = std::make_unique<Explorer>(b.model->app.graph, arch);
  t = now_ns();
  {
    const SpanGuard span(tracer, "core.problem_init", setup.id());
    rdse::Rng init_rng(first_seed ^ kInitSeedMix);
    const DseProblem problem(b.model->app.graph, arch,
                             b.explorer->initial_solution(spec.init,
                                                          init_rng));
  }
  init_ms = static_cast<double>(now_ns() - t) * 1e-6;
  return b;
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The result of one timed operation, kept for the traced re-run.
struct OpRecord {
  std::uint64_t seed = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process CPU time (all threads)
  std::size_t sample = 0;    ///< its HostSpeed sample
  Metrics best;
  AnnealResult anneal;
};

/// Timed set-ups: wall time, its model-load part and the HostSpeed sample
/// of each.
struct SetupSamples {
  std::vector<double> seconds;
  std::vector<double> load_ms;
  std::vector<std::size_t> samples;
};

/// One timed operation: Explorer::run or ParallelExplorer::run, followed by
/// the output checks. Failures are counted in `report`.
OpRecord timed_op(const Built& b, const ExploreSpec& spec, std::uint64_t seed,
                  unsigned threads, Tracer& tracer, Report& report) {
  OpRecord rec;
  rec.seed = seed;
  report.attempt();
  try {
    const rdse::TaskGraph& tg = b.model->app.graph;
    std::string problem;
    if (spec.replicas > 0) {
      const SpanGuard span(tracer, "op.parallel_explore");
      const double cpu0 = process_cpu_seconds();
      const std::int64_t t0 = now_ns();
      const ParallelRunResult r =
          b.parallel->run(parallel_config(spec, seed, threads));
      rec.seconds = seconds_since(t0);
      rec.cpu_seconds = process_cpu_seconds() - cpu0;
      rec.best = r.best.best_metrics;
      rec.anneal = r.best.anneal;
      problem = check_result(tg, r.best.best_architecture,
                             r.best.best_solution, r.best.best_metrics);
    } else {
      const SpanGuard span(tracer, "op.explore");
      const double cpu0 = process_cpu_seconds();
      const std::int64_t t0 = now_ns();
      const RunResult r = b.explorer->run(explorer_config(spec, seed));
      rec.seconds = seconds_since(t0);
      rec.cpu_seconds = process_cpu_seconds() - cpu0;
      rec.best = r.best_metrics;
      rec.anneal = r.anneal;
      problem = check_result(tg, r.best_architecture, r.best_solution,
                             r.best_metrics);
    }
    if (!problem.empty()) report.fail("seed " + std::to_string(seed) + ": " +
                                      problem);
  } catch (const std::exception& e) {
    report.fail("seed " + std::to_string(seed) + ": " + e.what());
  }
  return rec;
}

/// Untimed warm-up operation, which doubles as the determinism check:
/// serial workloads compare a stepped run against Explorer::run for the
/// same seed; replica-exchange compares 1 thread against 2.
void warmup_op(const Built& b, const ExploreSpec& spec, std::uint64_t seed,
               Tracer& tracer, Report& report) {
  report.attempt();
  try {
    if (spec.replicas > 0) {
      const ParallelRunResult two =
          b.parallel->run(parallel_config(spec, seed, spec.threads));
      const ParallelRunResult one =
          b.parallel->run(parallel_config(spec, seed, 1));
      bool same = same_metrics(one.best.best_metrics, two.best.best_metrics) &&
                  same_anneal(one.best.anneal, two.best.anneal) &&
                  one.adoptions == two.adoptions &&
                  one.best_replica == two.best_replica;
      if (!same) {
        report.fail("replica exchange differs between 1 and " +
                    std::to_string(spec.threads) + " threads");
      }
      return;
    }
    const SteppedRun stepped =
        stepped_run(*b.explorer, spec, seed, ScheduleKind::kModifiedLam,
                    /*profile=*/false, tracer, -1, nullptr);
    const RunResult direct = b.explorer->run(explorer_config(spec, seed));
    if (!same_metrics(stepped.best, direct.best_metrics) ||
        !same_anneal(stepped.anneal, direct.anneal)) {
      report.fail("stepped run differs from Explorer::run");
    }
  } catch (const std::exception& e) {
    report.fail(std::string("warm-up: ") + e.what());
  }
}

/// Runs timed operations for `seconds` (and at least makespan_ops and
/// kMedianReps of them), seeds op_seed(seed, 1), op_seed(seed, 2), ...,
/// each a `host` sample. After each operation it times one set-up for that
/// operation's seed, also a `host` sample. Interleaved so, set-ups meet the
/// same host-speed phases as the operations; a block of them at the start
/// would sample the host over a few milliseconds only.
std::vector<OpRecord> timed_window(const Built& b, const ExploreSpec& spec,
                                   std::uint64_t seed, double seconds,
                                   Tracer& tracer, Report& report,
                                   HostSpeed& host, SetupSamples& setups) {
  std::vector<OpRecord> ops;
  const int min_ops = std::max(spec.makespan_ops, kMedianReps);
  const std::int64_t start = now_ns();
  for (std::uint64_t i = 1;; ++i) {
    if (static_cast<int>(ops.size()) >= min_ops &&
        seconds_since(start) >= seconds) {
      break;
    }
    ops.push_back(timed_op(b, spec, op_seed(seed, i), spec.threads, tracer,
                           report));
    ops.back().sample = host.add();
    double load = 0.0;
    double init = 0.0;
    const std::int64_t t0 = now_ns();
    const Built throwaway =
        build_once(spec, op_seed(seed, i), tracer, load, init);
    setups.seconds.push_back(seconds_since(t0));
    setups.load_ms.push_back(load);
    setups.samples.push_back(host.add());
    host.maybe_burst();
  }
  host.burst(3);
  return ops;
}

/// ParallelExplorer at 1 and 2 threads on the same seeds: efficiency,
/// adoptions and the thread-count determinism check.
void parallel_layer(const Built& b, const ExploreSpec& spec,
                    const std::vector<std::uint64_t>& seeds, Tracer& tracer,
                    Report& report) {
  double t1 = 0.0;
  double t2 = 0.0;
  double adoptions = 0.0;
  ParallelExplorer local(b.model->app.graph, b.explorer->architecture());
  const ParallelExplorer& px = b.parallel ? *b.parallel : local;
  for (const std::uint64_t s : seeds) {
    report.attempt();
    std::int64_t t = now_ns();
    ParallelRunResult one;
    {
      const SpanGuard span(tracer, "core.parallel.run_1_thread");
      one = px.run(parallel_config(spec, s, 1));
    }
    t1 += seconds_since(t);
    t = now_ns();
    ParallelRunResult two;
    {
      const SpanGuard span(tracer, "core.parallel.run_2_threads");
      two = px.run(parallel_config(spec, s, 2));
    }
    t2 += seconds_since(t);
    adoptions += static_cast<double>(two.adoptions);
    if (!same_metrics(one.best.best_metrics, two.best.best_metrics) ||
        one.adoptions != two.adoptions) {
      report.fail("replica exchange differs between 1 and 2 threads");
    }
  }
  const auto n = static_cast<std::int64_t>(seeds.size());
  report.set("core.parallel.efficiency", ratio(t1, 2.0 * t2), "ratio", n);
  report.set("core.parallel.adoptions",
             ratio(adoptions, static_cast<double>(n)), "count", n);
}

/// DseProblem::reset_state on the workload's model: the cost of adopting a
/// replica's state at an exchange barrier.
void reset_state_layer(const Built& b, const ExploreSpec& spec,
                       std::uint64_t seed, Tracer& tracer, Report& report) {
  rdse::Rng init_rng(seed ^ kInitSeedMix);
  const Architecture& arch = b.explorer->architecture();
  DseProblem problem(b.model->app.graph, arch,
                     b.explorer->initial_solution(spec.init, init_rng));
  rdse::Rng other_rng(mix64(seed) ^ kInitSeedMix);
  const Solution other = b.explorer->initial_solution(spec.init, other_rng);
  std::vector<double> ms;
  for (int i = 0; i < kMedianReps; ++i) {
    const SpanGuard span(tracer, "core.reset_state");
    const std::int64_t t = now_ns();
    problem.reset_state(arch, other);
    ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
  }
  report.set("core.parallel.reset_state_ms", median(ms), "ms",
             static_cast<std::int64_t>(ms.size()));
}

/// The four deterministic list-style mappers on the workload's model.
void baseline_layer(const ExploreSpec& spec, const Built& b, Tracer& tracer,
                    Report& report) {
  const ModelSpec own = spec.baseline_model != nullptr
                            ? rdse::load_model_spec(spec.baseline_model)
                            : ModelSpec{};
  const rdse::TaskGraph& tg =
      spec.baseline_model != nullptr ? own.app.graph : b.model->app.graph;
  const Architecture arch =
      spec.baseline_model != nullptr
          ? rdse::make_cpu_fpga_architecture(spec.clbs, own.tr_per_clb,
                                             own.bus_bytes_per_second)
          : b.explorer->architecture();
  for (const char* name : {"heft", "peft", "list_scheduler", "clustering"}) {
    const std::unique_ptr<rdse::Mapper> mapper = rdse::make_mapper(name);
    std::vector<double> ms;
    for (int i = 0; i < kMedianReps; ++i) {
      report.attempt();
      const SpanGuard span(tracer, std::string("baseline.") + name);
      const std::int64_t t = now_ns();
      const rdse::MapperResult r = mapper->run(tg, arch, rdse::MapperConfig{});
      ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
      const std::string problem = check_result(
          tg, r.best_architecture, r.best_solution, r.best_metrics);
      if (!problem.empty()) report.fail(std::string(name) + ": " + problem);
    }
    report.set(std::string("baseline.") + name + "_ms", median(ms), "ms",
               static_cast<std::int64_t>(ms.size()));
  }
}

void report_layer_totals(const LayerTotals& t, Report& report) {
  const auto per = [](std::int64_t ns, std::int64_t n) {
    return ratio(static_cast<double>(ns), static_cast<double>(n));
  };
  const std::int64_t phases_ns =
      t.inc.profile_stage_ns + t.inc.profile_reconcile_ns +
      t.inc.profile_context_ns + t.inc.profile_relax_ns;
  const std::int64_t proxied_ns =
      t.propose_ns + t.accept_ns + t.reject_ns + t.snapshot_ns;
  report.set("core.problem_init_ms", median(t.init_ms), "ms",
             static_cast<std::int64_t>(t.init_ms.size()));
  report.set("core.propose_ns", per(t.propose_ns, t.proposes), "ns",
             t.proposes);
  report.set("core.propose_self_ns", per(t.propose_ns - phases_ns, t.proposes),
             "ns", t.proposes);
  report.set("core.accept_ns", per(t.accept_ns, t.accepts), "ns", t.accepts);
  report.set("core.reject_ns", per(t.reject_ns, t.rejects), "ns", t.rejects);
  report.set("core.snapshot_best_ns", per(t.snapshot_ns, t.snapshots), "ns",
             t.snapshots);
  report.set("core.ns_per_useful_eval", per(t.engine_ns, t.evaluated), "ns",
             t.evaluated);
  const auto d = static_cast<double>(t.drawn);
  report.set("core.moves.useful_eval_ratio",
             ratio(static_cast<double>(t.evaluated), d), "ratio", t.drawn);
  report.set("core.moves.null_rate",
             ratio(static_cast<double>(t.null_draws), d), "ratio", t.drawn);
  report.set("core.moves.cyclic_rate",
             ratio(static_cast<double>(t.infeasible), d), "ratio", t.drawn);
  report.set("core.moves.m1_null_rate",
             ratio(static_cast<double>(t.m1_null),
                   static_cast<double>(t.m1_drawn)),
             "ratio", t.m1_drawn);
  report.set("core.moves.m2_cyclic_rate",
             ratio(static_cast<double>(t.m2_cyclic),
                   static_cast<double>(t.m2_drawn)),
             "ratio", t.m2_drawn);
  const std::int64_t evals = t.inc.builds;
  report.set("sched.stage_ns_per_eval", per(t.inc.profile_stage_ns, evals),
             "ns", evals);
  report.set("sched.reconcile_ns_per_eval",
             per(t.inc.profile_reconcile_ns, evals), "ns", evals);
  report.set("sched.context_ns_per_eval",
             per(t.inc.profile_context_ns, evals), "ns", evals);
  report.set("sched.relax_ns_per_eval", per(t.inc.profile_relax_ns, evals),
             "ns", evals);
  const std::int64_t probes = t.inc.relax.probes;
  report.set("sched.relaxed_nodes_per_eval",
             per(t.inc.relax.relaxed_nodes, probes), "count", probes);
  report.set("sched.rank_repair_nodes_per_eval",
             per(t.inc.relax.rank_repair_nodes, probes), "count", probes);
  report.set("sched.makespan_rescan_rate",
             per(t.inc.relax.makespan_rescans, probes), "ratio", probes);
  report.set("sched.journal_entries_per_eval",
             per(t.inc.relax.journal_entries, probes), "count", probes);
  report.set("anneal.self_ns_per_iter",
             per(t.engine_ns - proxied_ns, t.iterations), "ns", t.iterations);
  report.set("anneal.accept_rate",
             ratio(static_cast<double>(t.accepted),
                   static_cast<double>(t.iterations)),
             "ratio", t.iterations);
  report.set("anneal.time_to_target_ms", median(t.ttt_ms), "ms",
             static_cast<std::int64_t>(t.ttt_ms.size()));
}

/// Stepped, proxied re-runs of `ops`' seeds (single-replica seeds for
/// replica-exchange) for at most `seconds`; each must reproduce the
/// untraced result bit for bit (serial workloads) and reach the target.
/// Returns one record per re-run, each a `host` sample.
std::vector<OpRecord> traced_pass(const Built& b, const ExploreSpec& spec,
                                  const std::vector<OpRecord>& ops,
                                  double seconds, Tracer& tracer,
                                  Report& report, HostSpeed& host,
                                  LayerTotals& totals) {
  std::vector<OpRecord> out;
  const std::int64_t start = now_ns();
  for (const OpRecord& rec : ops) {
    if (!out.empty() && seconds_since(start) >= seconds) break;
    report.attempt();
    try {
      const SpanGuard span(tracer, "op.stepped_explore");
      const std::uint64_t seed = spec.replicas > 0
                                     ? ParallelExplorer::replica_seed(rec.seed,
                                                                      0)
                                     : rec.seed;
      const SteppedRun run =
          stepped_run(*b.explorer, spec, seed, ScheduleKind::kModifiedLam,
                      /*profile=*/true, tracer, span.id(), &totals);
      OpRecord again;
      again.seed = rec.seed;
      again.seconds = run.wall_s;
      again.sample = host.add();
      out.push_back(again);
      host.maybe_burst();
      const std::string tag = "seed " + std::to_string(seed) + ": ";
      if (run.ttt_s < 0.0) {
        report.fail(tag + "never reached the target makespan");
      } else if (spec.replicas == 0 &&
                 (!same_metrics(run.best, rec.best) ||
                  !same_anneal(run.anneal, rec.anneal))) {
        report.fail(tag + "stepped run differs from Explorer::run");
      } else {
        const std::string problem =
            check_result(b.model->app.graph, run.best_architecture,
                         run.best_solution, run.best);
        if (!problem.empty()) report.fail(tag + problem);
      }
    } catch (const std::exception& e) {
      report.fail(std::string("traced run: ") + e.what());
    }
  }
  return out;
}

/// trace.overhead: the scaled median of the traced re-runs against that of
/// the untraced runs of the same seeds.
void report_trace_overhead(const std::vector<OpRecord>& untraced,
                           const std::vector<OpRecord>& traced,
                           const HostSpeed& host, Report& report) {
  std::map<std::uint64_t, const OpRecord*> by_seed;
  for (const OpRecord& r : untraced) by_seed[r.seed] = &r;
  std::vector<double> plain_s;
  std::vector<std::size_t> plain_samples;
  std::vector<double> traced_s;
  std::vector<std::size_t> traced_samples;
  for (const OpRecord& r : traced) {
    const auto it = by_seed.find(r.seed);
    if (it == by_seed.end()) continue;
    plain_s.push_back(it->second->seconds);
    plain_samples.push_back(it->second->sample);
    traced_s.push_back(r.seconds);
    traced_samples.push_back(r.sample);
  }
  report.set("trace.overhead",
             ratio(median(scaled(traced_s, traced_samples, host.factors())),
                   median(scaled(plain_s, plain_samples, host.factors()))) -
                 1.0,
             "ratio", static_cast<std::int64_t>(traced_s.size()));
}

}  // namespace

int run_explore_workload(const RunOptions& opt) {
  const ExploreSpec& spec = find_spec(opt.workload);
  Tracer tracer(opt.trace);
  Report report;
  report.note("workload", spec.name);
  report.note("model", spec.model);
  report.note("target_ms", spec.target_ms);

  // The run's own set-up, untimed: the first one in a process also pays
  // for cold caches and lazily built statics.
  double load_ms = 0.0;
  double init_ms = 0.0;
  const Built b = build_once(spec, op_seed(opt.seed, 0), tracer, load_ms,
                             init_ms);
  warmup_op(b, spec, op_seed(opt.seed, 0), tracer, report);
  HostSpeed host;
  host.burst(5);
  SetupSamples setups;

  if (!opt.trace) {
    const std::vector<OpRecord> ops =
        timed_window(b, spec, opt.seed, opt.seconds, tracer, report, host,
                     setups);
    std::vector<double> op_ms;
    std::vector<double> cpu_ms;
    std::vector<std::size_t> samples;
    for (const OpRecord& r : ops) {
      op_ms.push_back(r.seconds * 1e3);
      cpu_ms.push_back(r.cpu_seconds * 1e3);
      samples.push_back(r.sample);
    }
    double makespan = 0.0;
    for (int i = 0; i < spec.makespan_ops; ++i) {
      makespan += rdse::to_ms(ops[static_cast<std::size_t>(i)].best.makespan);
    }
    const auto n = static_cast<std::int64_t>(ops.size());
    report.set("setup_s",
               median(scaled(setups.seconds, setups.samples, host.factors())),
               "s", static_cast<std::int64_t>(setups.seconds.size()));
    report.set("op_ms_p50", median(scaled(op_ms, samples, host.factors())),
               "ms", n);
    report.set("cpu_ms_per_op",
               mean(scaled(cpu_ms, samples, host.factors())), "ms", n);
    report.set("makespan_ms", makespan / spec.makespan_ops, "ms",
               spec.makespan_ops);
    report.note("host_speed", host.overall_speed());
    report.note("raw_setup_s", median(setups.seconds));
    report.note("raw_op_ms_p50", median(op_ms));
    report.note("raw_cpu_ms_per_op", mean(cpu_ms));
    report.write(opt.out);
    return 0;
  }

  // Traced run: an untraced pass and a traced pass over the same seeds,
  // half the window each, then the per-layer probes.
  const double half = opt.seconds / 2.0;
  Tracer quiet(false);
  const std::vector<OpRecord> ops =
      timed_window(b, spec, opt.seed, half, quiet, report, host, setups);
  std::vector<OpRecord> traced;
  LayerTotals totals;
  if (spec.replicas > 0) {
    // The end-to-end operation again, inside a span, on the same seeds.
    const std::int64_t start = now_ns();
    for (const OpRecord& rec : ops) {
      if (!traced.empty() && seconds_since(start) >= half) break;
      traced.push_back(
          timed_op(b, spec, rec.seed, spec.threads, tracer, report));
      traced.back().sample = host.add();
      host.maybe_burst();
    }
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < ops.size() && i < 3; ++i) {
      seeds.push_back(ops[i].seed);
    }
    parallel_layer(b, spec, seeds, tracer, report);
    traced_pass(b, spec, ops, half / 2.0, tracer, report, host, totals);
  } else {
    traced = traced_pass(b, spec, ops, half, tracer, report, host, totals);
    parallel_layer(b, spec, {ops.front().seed}, tracer, report);
  }
  host.burst(3);
  report_trace_overhead(ops, traced, host, report);
  report.set("model.load_ms", median(setups.load_ms), "ms",
             static_cast<std::int64_t>(setups.load_ms.size()));
  report_layer_totals(totals, report);
  reset_state_layer(b, spec, ops.front().seed, tracer, report);
  baseline_layer(spec, b, tracer, report);
  // serve-mix measures its serve layer on its own request stream.
  if (opt.phase != "layers") {
    explore_serve_probe(spec.model, opt.run_dir, tracer, report);
  }
  tracer.write(opt.run_dir + "/trace-" + spec.name + ".json");
  report.write(opt.out);
  return 0;
}

}  // namespace perfbench
