#pragma once
/// \file explorer.hpp
/// \brief Top-level façade: one call runs the full §4 exploration — initial
/// solution, infinite-temperature warm-up, adaptive cooling, tracing — and
/// returns the best mapping with its metrics. This is the library's primary
/// public entry point.

#include <cstdint>
#include <vector>

#include "anneal/annealer.hpp"
#include "core/problem.hpp"
#include "core/trace.hpp"
#include "util/cancel.hpp"

namespace rdse {

enum class InitKind : std::uint8_t {
  kRandomPartition,  ///< §5: random HW/SW partition packed into contexts
  kAllSoftware,      ///< everything on the first processor
};

struct ExplorerConfig {
  std::uint64_t seed = 1;
  std::int64_t iterations = 20'000;        ///< cooling iterations
  std::int64_t warmup_iterations = 1'200;  ///< §5's infinite-T phase
  ScheduleKind schedule = ScheduleKind::kModifiedLam;
  InitKind init = InitKind::kRandomPartition;
  MoveConfig moves;
  CostWeights cost;
  bool adaptive_move_mix = false;
  /// A/B escape hatch: evaluate every candidate from scratch instead of
  /// through the incremental delta path (bit-identical, much slower).
  bool full_eval = false;
  /// Candidate moves probed per annealing step (best-of-K, then
  /// Metropolis). 1 is bit-identical to the classic one-probe path.
  int batch = 1;
  std::int64_t freeze_after = 0;  ///< 0: fixed horizon as in the paper
  bool record_trace = true;
  std::int64_t trace_stride = 1;  ///< keep every k-th iteration
  /// Optional cooperative-cancellation token (deadline or explicit stop),
  /// polled at iteration granularity; a fired token makes run() throw
  /// Cancelled. Null = never cancelled. A token that never fires does not
  /// change results in any bit.
  const CancelToken* cancel = nullptr;
};

/// Result of one exploration run.
struct RunResult {
  Solution best_solution;
  Architecture best_architecture;
  Metrics best_metrics;
  Metrics initial_metrics;
  AnnealResult anneal;
  Trace trace;
  double wall_seconds = 0.0;
  std::array<MoveClassStats, kMoveKindCount> move_stats{};

  RunResult() : best_solution(0), best_architecture(Bus(1)) {}
};

class Explorer {
 public:
  /// The architecture is copied; the task graph must outlive the explorer.
  Explorer(const TaskGraph& tg, Architecture arch);

  /// Run one exploration: a fresh CheckpointableExplorer (core/checkpoint.hpp)
  /// stepped to completion, plus the wall time.
  [[nodiscard]] RunResult run(const ExplorerConfig& config) const;

  /// Run `n` explorations with seeds config.seed, config.seed+1, ...
  ///
  /// Contract: `n` == 0 is valid and returns an empty vector; `n` < 0
  /// throws Error. This is the serial reference path: a SweepEngine point
  /// of the anneal mapper shards the same runs over a thread pool and is
  /// bit-identical to this loop in every field a MapperResult carries
  /// except wall-clock times.
  [[nodiscard]] std::vector<RunResult> run_many(const ExplorerConfig& config,
                                                int n) const;

  [[nodiscard]] const TaskGraph& task_graph() const { return *tg_; }
  [[nodiscard]] const Architecture& architecture() const { return arch_; }

  /// Build the configured initial solution (exposed for tests/examples).
  /// The all-software start draws no random number, so it is built once,
  /// with the explorer, and every run and replica gets a copy.
  [[nodiscard]] Solution initial_solution(InitKind kind, Rng& rng) const;

 private:
  const TaskGraph* tg_;
  Architecture arch_;
  Solution all_software_{0};
};

}  // namespace rdse
