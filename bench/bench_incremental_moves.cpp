/// \file bench_incremental_moves.cpp
/// \brief EXP-M1 — per-move evaluation cost, full re-evaluation vs the
/// incremental delta path wired into DseProblem::propose.
///
/// Drives the same move sequence (bit-identical decisions) through a
/// full_eval problem and an incremental one and reports per-move wall time,
/// the number of re-relaxed nodes per evaluated candidate, the chain-diff
/// hit rate and the makespan-rescan rate. Self-contained (no Google
/// Benchmark) so the CI bench-smoke stage can always build and run it;
/// --json writes the results as a stable rdse.bench.v1 artifact
/// (BENCH_hotpath.json in CI) that `rdse compare` diffs against the
/// committed baseline to gate order-of-magnitude hot-path regressions.
///
/// Knobs: --moves N (default 20000), --seed S, --repeat R (default 3),
/// --json PATH. Each model's full/incremental pair is driven R times and
/// the fastest run per path is reported — wall-clock minima are robust to
/// scheduler noise on shared machines, which single-shot means are not
/// (the counters are deterministic and identical across repeats).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/problem.hpp"
#include "model/generators.hpp"
#include "model/motion_detection.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace rdse;

namespace {

struct DriveResult {
  double ns_per_move = 0.0;       ///< whole loop / all proposals
  double ns_per_evaluated = 0.0;  ///< propose() time of evaluated proposals
  std::int64_t evaluated = 0;
  double final_cost = 0.0;
};

/// Propose/accept/reject loop with a deterministic decision policy. Both
/// problems see identical rng streams and (costs being bit-identical)
/// identical decisions, so the two timed loops do the same logical work.
/// Every propose() is timed individually so the cost of *evaluated*
/// proposals (the paper's move-evaluation cost) can be separated from null
/// draws, which skip evaluation on both paths.
DriveResult drive(DseProblem& problem, std::uint64_t seed,
                  std::int64_t moves) {
  Rng rng(seed);
  Rng coin(seed ^ 0xACCE97u);
  double eval_ns = 0.0;
  std::int64_t eval_calls = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < moves; ++i) {
    const auto p0 = std::chrono::steady_clock::now();
    const bool proposed = problem.propose(rng);
    const auto p1 = std::chrono::steady_clock::now();
    if (!proposed) continue;
    eval_ns += std::chrono::duration<double, std::nano>(p1 - p0).count();
    ++eval_calls;
    const bool improving = problem.candidate_cost() <= problem.cost();
    if (improving || coin.bernoulli(0.4)) {
      problem.accept();
    } else {
      problem.reject();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  DriveResult r;
  r.ns_per_move =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(moves);
  r.ns_per_evaluated =
      eval_calls > 0 ? eval_ns / static_cast<double>(eval_calls) : 0.0;
  std::int64_t evaluated = 0;
  for (const MoveClassStats& s : problem.move_stats()) {
    evaluated += s.evaluated;
  }
  r.evaluated = evaluated;
  r.final_cost = problem.cost();
  return r;
}

struct ModelReport {
  std::string model;
  std::size_t tasks = 0;
  std::int64_t moves = 0;
  double full_ns_per_move = 0.0;
  double inc_ns_per_move = 0.0;
  double speedup = 0.0;
  double full_ns_per_eval = 0.0;
  double inc_ns_per_eval = 0.0;
  double eval_speedup = 0.0;  ///< per evaluated proposal (the §4.4 cost)
  double relaxed_per_probe = 0.0;
  double relax_reduction = 0.0;  ///< nodes / relaxed-per-probe
  double journal_entries_per_probe = 0.0;  ///< undo-journal records staged
  double bounds_reuse_rate = 0.0;
  double rank_refresh_rate = 0.0;
  double rank_repair_nodes_per_probe = 0.0;  ///< nodes re-ranked
  double rank_search_nodes_per_probe = 0.0;  ///< nodes the repair searched
  double makespan_rescan_rate = 0.0;  ///< probes that fell back to O(V) scan
  double seq_diff_hit_rate = 0.0;  ///< chain edges kept / (kept + removed)
  double seq_edges_added_per_eval = 0.0;
  double seq_edges_reweighted_per_eval = 0.0;  ///< in-place weight patches
  // Micro-profile (one dedicated profiled pass; informational, not gated —
  // absolute phase times are machine-dependent).
  double profile_stage_ns_per_eval = 0.0;      ///< moved-task staging
  double profile_reconcile_ns_per_eval = 0.0;  ///< chain diff + RC realize
  double profile_context_ns_per_eval = 0.0;    ///< RC context accounting
  double profile_relax_ns_per_eval = 0.0;      ///< delta relaxation
  /// Candidates rejected by the parked-edge order check, never relaxed.
  std::int64_t order_rejects = 0;
  /// Candidates rejected by the context-order check, never relaxed.
  std::int64_t context_rejects = 0;
  /// Communication edges parked at the end of the run, of `comm_edges`.
  std::int64_t comm_edges_parked = 0;
  std::size_t comm_edges = 0;
};

ModelReport compare(const std::string& name, const TaskGraph& tg,
                    const Architecture& arch, const Solution& initial,
                    std::uint64_t seed, std::int64_t moves, int repeats) {
  ModelReport rep;
  rep.model = name;
  rep.tasks = tg.task_count();
  rep.comm_edges = tg.comm_count();
  rep.moves = moves;

  rep.full_ns_per_move = rep.inc_ns_per_move = 0.0;
  rep.full_ns_per_eval = rep.inc_ns_per_eval = 0.0;
  std::optional<IncrementalEvalStats> stats;
  for (int r = 0; r < repeats; ++r) {
    // Both loops run cold from a fresh problem each repeat (bit-identical
    // decisions every time); first-build allocations amortize over the
    // move budget and affect both paths alike.
    DseProblem full(tg, arch, initial, {}, {}, false, /*full_eval=*/true);
    DseProblem inc(tg, arch, initial, {}, {}, false, /*full_eval=*/false);
    const DriveResult rf = drive(full, seed, moves);
    const DriveResult ri = drive(inc, seed, moves);
    // Bit-identity gate: a divergent decision sequence shows up in the
    // evaluated-proposal count even when the final costs coincide.
    if (rf.final_cost != ri.final_cost || rf.evaluated != ri.evaluated) {
      std::cerr << "FATAL: full/incremental diverged on " << name
                << " (cost " << rf.final_cost << " vs " << ri.final_cost
                << ", evaluated " << rf.evaluated << " vs " << ri.evaluated
                << ")\n";
      std::exit(1);
    }
    const auto keep_min = [](double& slot, double v) {
      if (slot == 0.0 || v < slot) slot = v;
    };
    keep_min(rep.full_ns_per_move, rf.ns_per_move);
    keep_min(rep.inc_ns_per_move, ri.ns_per_move);
    keep_min(rep.full_ns_per_eval, rf.ns_per_evaluated);
    keep_min(rep.inc_ns_per_eval, ri.ns_per_evaluated);
    stats = inc.incremental_stats();  // deterministic: same every repeat
  }
  rep.speedup = rep.full_ns_per_move / rep.inc_ns_per_move;
  rep.eval_speedup = rep.full_ns_per_eval / rep.inc_ns_per_eval;
  if (stats.has_value() && stats->relax.probes > 0) {
    rep.relaxed_per_probe =
        static_cast<double>(stats->relax.relaxed_nodes) /
        static_cast<double>(stats->relax.probes);
    rep.relax_reduction =
        static_cast<double>(tg.task_count()) /
        std::max(rep.relaxed_per_probe, 1e-9);
    rep.journal_entries_per_probe =
        static_cast<double>(stats->relax.journal_entries) /
        static_cast<double>(stats->relax.probes);
    const auto bounds = stats->bounds_reused + stats->bounds_computed;
    rep.bounds_reuse_rate =
        bounds > 0 ? static_cast<double>(stats->bounds_reused) /
                         static_cast<double>(bounds)
                   : 0.0;
    rep.rank_refresh_rate =
        static_cast<double>(stats->relax.rank_refreshes) /
        static_cast<double>(stats->relax.probes);
    rep.rank_repair_nodes_per_probe =
        static_cast<double>(stats->relax.rank_repair_nodes) /
        static_cast<double>(stats->relax.probes);
    rep.rank_search_nodes_per_probe =
        static_cast<double>(stats->relax.rank_search_nodes) /
        static_cast<double>(stats->relax.probes);
    rep.makespan_rescan_rate =
        static_cast<double>(stats->relax.makespan_rescans) /
        static_cast<double>(stats->relax.probes);
    const auto chain = stats->seq_edges_kept + stats->seq_edges_removed;
    rep.seq_diff_hit_rate =
        chain > 0 ? static_cast<double>(stats->seq_edges_kept) /
                        static_cast<double>(chain)
                  : 0.0;
    rep.seq_edges_added_per_eval =
        static_cast<double>(stats->seq_edges_added) /
        static_cast<double>(stats->builds);
    rep.seq_edges_reweighted_per_eval =
        static_cast<double>(stats->seq_edges_reweighted) /
        static_cast<double>(stats->builds);
    rep.order_rejects = stats->order_rejects;
    rep.context_rejects = stats->context_rejects;
    rep.comm_edges_parked = stats->comm_edges_parked;
  }

  // One extra pass with the phase clocks on. Profiling is kept out of the
  // timed repeats above so the headline ns/move never pays for the clock
  // reads; the counters are deterministic, so this pass sees the same
  // moves.
  {
    DseProblem prof(tg, arch, initial, {}, {}, false, /*full_eval=*/false);
    prof.set_incremental_profile(true);
    drive(prof, seed, moves);
    const auto ps = prof.incremental_stats();
    if (ps.has_value() && ps->builds > 0) {
      const double n = static_cast<double>(ps->builds);
      rep.profile_stage_ns_per_eval =
          static_cast<double>(ps->profile_stage_ns) / n;
      rep.profile_reconcile_ns_per_eval =
          static_cast<double>(ps->profile_reconcile_ns) / n;
      rep.profile_context_ns_per_eval =
          static_cast<double>(ps->profile_context_ns) / n;
      rep.profile_relax_ns_per_eval =
          static_cast<double>(ps->profile_relax_ns) / n;
    }
  }
  return rep;
}

void print_table(const std::vector<ModelReport>& reports) {
  std::printf(
      "\n%-16s %5s | %8s %8s %7s | %9s %9s %7s | %8s %7s %6s %6s\n",
      "model", "tasks", "full/mv", "inc/mv", "speedup", "full/eval",
      "inc/eval", "evalspd", "relax/ev", "jrnl/ev", "diff%", "scan%");
  for (const ModelReport& r : reports) {
    std::printf(
        "%-16s %5zu | %7.0fn %7.0fn %6.2fx | %8.0fn %8.0fn %6.2fx | "
        "%8.2f %7.2f %5.1f%% %5.1f%%\n",
        r.model.c_str(), r.tasks, r.full_ns_per_move, r.inc_ns_per_move,
        r.speedup, r.full_ns_per_eval, r.inc_ns_per_eval, r.eval_speedup,
        r.relaxed_per_probe, r.journal_entries_per_probe,
        100.0 * r.seq_diff_hit_rate, 100.0 * r.makespan_rescan_rate);
  }
  std::printf("%-16s %5s | %10s %10s %10s %10s\n", "micro-profile", "",
              "stage/ev", "recon/ev", "ctx/ev", "relax/ev");
  for (const ModelReport& r : reports) {
    std::printf("%-16s %5s | %9.0fn %9.0fn %9.0fn %9.0fn\n", r.model.c_str(),
                "", r.profile_stage_ns_per_eval,
                r.profile_reconcile_ns_per_eval, r.profile_context_ns_per_eval,
                r.profile_relax_ns_per_eval);
  }
  std::printf("%-16s %5s | %13s %15s %18s\n", "early rejects", "",
              "order rejects", "context rejects", "comm edges parked");
  for (const ModelReport& r : reports) {
    std::printf("%-16s %5s | %13lld %15lld %10lld / %5zu\n", r.model.c_str(),
                "", static_cast<long long>(r.order_rejects),
                static_cast<long long>(r.context_rejects),
                static_cast<long long>(r.comm_edges_parked), r.comm_edges);
  }
  std::printf("\n");
}

/// The rdse.bench.v1 hot-path artifact: stable schema, one result object
/// per model, diffable by `rdse compare` against a committed baseline.
void write_json(const std::string& path, std::int64_t moves,
                std::uint64_t seed, int repeats,
                const std::vector<ModelReport>& reports) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "rdse.bench.v1");
  doc.set("benchmark", "hotpath");
  doc.set("moves", moves);
  doc.set("seed", static_cast<std::int64_t>(seed));
  doc.set("repeat", static_cast<std::int64_t>(repeats));
  JsonValue results = JsonValue::array();
  for (const ModelReport& r : reports) {
    JsonValue row = JsonValue::object();
    row.set("model", r.model);
    row.set("tasks", static_cast<std::int64_t>(r.tasks));
    row.set("moves", r.moves);
    row.set("full_ns_per_move", r.full_ns_per_move);
    row.set("incremental_ns_per_move", r.inc_ns_per_move);
    row.set("speedup", r.speedup);
    row.set("full_ns_per_evaluated_move", r.full_ns_per_eval);
    row.set("incremental_ns_per_evaluated_move", r.inc_ns_per_eval);
    row.set("evaluated_move_speedup", r.eval_speedup);
    row.set("relaxed_nodes_per_probe", r.relaxed_per_probe);
    row.set("relax_reduction", r.relax_reduction);
    row.set("journal_entries_per_probe", r.journal_entries_per_probe);
    row.set("bounds_reuse_rate", r.bounds_reuse_rate);
    row.set("rank_refresh_rate", r.rank_refresh_rate);
    row.set("rank_repair_nodes_per_probe", r.rank_repair_nodes_per_probe);
    row.set("rank_search_nodes_per_probe", r.rank_search_nodes_per_probe);
    row.set("makespan_rescan_rate", r.makespan_rescan_rate);
    row.set("seq_diff_hit_rate", r.seq_diff_hit_rate);
    row.set("seq_edges_added_per_eval", r.seq_edges_added_per_eval);
    row.set("seq_edges_reweighted_per_eval", r.seq_edges_reweighted_per_eval);
    row.set("profile_stage_ns_per_eval", r.profile_stage_ns_per_eval);
    row.set("profile_reconcile_ns_per_eval", r.profile_reconcile_ns_per_eval);
    row.set("profile_context_ns_per_eval", r.profile_context_ns_per_eval);
    row.set("profile_relax_ns_per_eval", r.profile_relax_ns_per_eval);
    row.set("order_rejects", r.order_rejects);
    row.set("context_rejects", r.context_rejects);
    row.set("comm_edges_parked", r.comm_edges_parked);
    results.push_back(std::move(row));
  }
  doc.set("results", std::move(results));

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  out << doc.dump(2) << "\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

static int run_bench(int argc, char** argv) {
  const Options opts = Options::parse(argc, argv);
  const std::int64_t moves = opts.get_int("moves", 20'000);
  const auto seed = static_cast<std::uint64_t>(
      opts.get_int_in("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  const int repeats = static_cast<int>(
      opts.get_int_in("repeat", 3, 1, std::numeric_limits<int>::max()));
  const std::string json = opts.get_string("json", "");

  std::vector<ModelReport> reports;

  {
    const Application app = make_motion_detection_app();
    const Architecture arch = make_cpu_fpga_architecture(
        2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
    Rng init(seed ^ 7);
    const Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    reports.push_back(compare("motion_detection", app.graph, arch, initial,
                              seed, moves, repeats));
  }

  {
    AppGenParams params;
    params.dag.node_count = 120;
    params.dag.max_width = 8;
    params.hw_capable_fraction = 0.8;
    Rng gen(seed ^ 99);
    const Application app = random_application(params, gen);
    const Architecture arch =
        make_cpu_fpga_architecture(1500, from_us(10.0), 50'000'000);
    Rng init(seed ^ 13);
    const Solution initial =
        Solution::random_partition(app.graph, arch, 0, 1, init);
    reports.push_back(compare("synthetic_120", app.graph, arch, initial,
                              seed, moves, repeats));
  }

  print_table(reports);
  if (!json.empty()) write_json(json, moves, seed, repeats, reports);
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, run_bench);
}
