#pragma once
/// \file parallel_explorer.hpp
/// \brief Replica-exchange parallel exploration.
///
/// Runs N annealing replicas concurrently, each with an independent RNG
/// stream derived from one master seed, and periodically exchanges best-so-
/// far solutions at fixed iteration barriers: every replica whose current
/// cost trails the leading replica's best adopts that best (the leader
/// itself may adopt from its ring neighbour). Replicas may cool under
/// different ScheduleKinds — a parallel-tempering ladder where greedy
/// replicas exploit what Lam replicas discover. Because replicas only
/// interact at barriers — and the barrier-side exchange is computed serially
/// in replica order from snapshotted states — the outcome is bit-identical
/// for any thread count, including 1. DSE is treated as an embarrassingly
/// parallel sweep, the way the task-mapping-evaluator and microthreaded
/// many-core DSE literature scale it.

#include <cstdint>
#include <vector>

#include "core/explorer.hpp"

namespace rdse {

/// The serial config's fields, which every replica runs at its own stream
/// seed and ladder rung (`iterations` and `warmup_iterations` count per
/// replica; `cancel` is shared by all of them), plus the replica-exchange
/// fields. Traces are off by default here.
struct ParallelExplorerConfig : ExplorerConfig {
  ParallelExplorerConfig() { record_trace = false; }

  int replicas = 8;
  /// Worker threads; 0 = min(replicas, hardware concurrency). Any value
  /// yields the same result — this is a throughput knob only.
  unsigned threads = 0;
  /// Cooling iterations between exchange barriers (0 = fully independent
  /// replicas, i.e. plain multi-start annealing).
  std::int64_t exchange_interval = 500;
  /// Optional per-replica temperature ladder, assigned round-robin
  /// (e.g. {kModifiedLam, kLamDelosme, kGreedy}); empty = `schedule` for
  /// every replica.
  std::vector<ScheduleKind> replica_schedules;
};

/// Per-replica outcome, kept for reporting and determinism checks.
struct ReplicaOutcome {
  int replica = 0;
  std::uint64_t seed = 0;  ///< derived stream seed
  ScheduleKind schedule = ScheduleKind::kModifiedLam;
  AnnealResult anneal;
  Metrics best_metrics;
  double best_cost = 0.0;
  std::int64_t adoptions = 0;  ///< times this replica adopted a neighbour
  Trace trace;
};

struct ParallelRunResult {
  /// Facade-compatible view of the winning replica (lowest best cost; ties
  /// go to the lowest replica index), usable with print_run_report().
  RunResult best;
  int best_replica = 0;
  std::vector<ReplicaOutcome> replicas;
  std::int64_t exchange_rounds = 0;
  std::int64_t adoptions = 0;  ///< total across replicas
  double wall_seconds = 0.0;

  /// All replica traces merged into one iteration-sorted trace (rows of
  /// replica r keep their own iteration numbering; useful for plotting
  /// convergence envelopes).
  [[nodiscard]] Trace merged_trace() const;
};

class ParallelExplorer {
 public:
  /// The architecture is copied; the task graph must outlive the explorer.
  ParallelExplorer(const TaskGraph& tg, Architecture arch);

  /// Run one replica-exchange exploration: a fresh
  /// CheckpointableParallelExplorer (core/checkpoint.hpp) stepped barrier by
  /// barrier to completion, plus the wall time.
  [[nodiscard]] ParallelRunResult run(
      const ParallelExplorerConfig& config) const;

  [[nodiscard]] const TaskGraph& task_graph() const {
    return explorer_.task_graph();
  }
  [[nodiscard]] const Architecture& architecture() const {
    return explorer_.architecture();
  }

  /// The stream seed replica `r` derives from `master_seed` (exposed so
  /// tests can reproduce a single replica with the plain Explorer).
  [[nodiscard]] static std::uint64_t replica_seed(std::uint64_t master_seed,
                                                  int replica);

 private:
  Explorer explorer_;
};

}  // namespace rdse
