#pragma once
/// \file checkpoint.hpp
/// \brief Durable checkpoint/resume for long explorations.
///
/// Format `rdse.checkpoint.v1`: a sealed document (util/record_log.hpp).
/// A failed save degrades to "no new checkpoint", never to a corrupt
/// resume.
///
/// The checkpointable sessions below are the exploration loop itself:
/// Explorer::run and ParallelExplorer::run build a fresh session and step
/// it to completion. A session runs in caller-controlled segments and
/// serializes *every* mutable bit of the loop (RNG streams, schedule
/// position, warm-up statistics, counters, move-mix EWMAs, current and best
/// states, per-replica state). The contract, enforced by
/// tests/test_core_checkpoint.cpp: a run resumed from a checkpoint taken
/// at any point is bit-identical to the uninterrupted run, for any thread
/// count on the parallel path. Parallel checkpointing is a library
/// feature: `rdse explore --checkpoint` drives the serial session only.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/parallel_explorer.hpp"
#include "util/json.hpp"

namespace rdse {

class ThreadPool;

inline constexpr const char* kCheckpointFormat = "rdse.checkpoint.v1";

/// Architecture <-> JSON. Tombstoned slots are preserved (as nulls) so
/// resource ids — which solutions and moves hold — stay stable across a
/// save/load cycle.
[[nodiscard]] JsonValue architecture_to_json(const Architecture& arch);
[[nodiscard]] Architecture architecture_from_json(const JsonValue& doc);

/// Metrics <-> JSON (all integer fields; exact below 2^53).
[[nodiscard]] JsonValue metrics_to_json(const Metrics& m);
[[nodiscard]] Metrics metrics_from_json(const JsonValue& doc);

/// Serializable subset of ExplorerConfig: everything that shapes the
/// search trajectory. Runtime-only members (trace recording, cancel token,
/// callbacks) are not persisted.
[[nodiscard]] JsonValue explorer_config_to_json(const ExplorerConfig& config);
[[nodiscard]] ExplorerConfig explorer_config_from_json(const JsonValue& doc);

/// Same for ParallelExplorerConfig. `threads` is a throughput knob with no
/// effect on results and is deliberately not persisted — a run may be
/// resumed under a different thread count.
[[nodiscard]] JsonValue parallel_explorer_config_to_json(
    const ParallelExplorerConfig& config);
[[nodiscard]] ParallelExplorerConfig parallel_explorer_config_from_json(
    const JsonValue& doc);

/// Atomically write `body` as a checkpoint file. Returns false on any
/// storage failure and never throws on I/O errors — a failed checkpoint
/// must not kill the run.
[[nodiscard]] bool save_checkpoint(const std::string& path,
                                   const JsonValue& body);

/// Load and verify a checkpoint file; throws Error when it is missing,
/// torn, of another format or fails its checksum.
[[nodiscard]] JsonValue load_checkpoint(const std::string& path);

/// One annealing chain of a session: its problem, the engine walking it and
/// the trace it records (defined in checkpoint.cpp).
struct SessionReplica;

/// One exploration run in caller-controlled segments with full state
/// capture between them — the engine behind Explorer::run.
class CheckpointableExplorer {
 public:
  /// Start a fresh session. Validates the task graph and architecture as
  /// Explorer's constructor does.
  CheckpointableExplorer(const TaskGraph& tg, Architecture arch,
                         const ExplorerConfig& config);

  /// Start a fresh session on an explorer's task graph and architecture,
  /// which that explorer has validated already (nothing is copied or
  /// re-validated; the task graph must outlive the session).
  CheckpointableExplorer(const Explorer& explorer,
                         const ExplorerConfig& config);

  /// Resume from save_state() output. `arch` is the base architecture the
  /// fresh run was constructed with, validated as above (the session's
  /// current/best architectures come from the state). `cancel` re-attaches
  /// a cooperative-cancellation token (tokens are runtime state and are not
  /// persisted). Traces are not persisted either: a resumed session records
  /// none.
  CheckpointableExplorer(const TaskGraph& tg, Architecture arch,
                         const JsonValue& state,
                         const CancelToken* cancel = nullptr);

  CheckpointableExplorer(CheckpointableExplorer&&) noexcept;
  CheckpointableExplorer& operator=(CheckpointableExplorer&&) noexcept;
  ~CheckpointableExplorer();

  /// Run at most `max_iterations` further iterations; returns the number
  /// executed (0 iff finished()).
  std::int64_t step(std::int64_t max_iterations);

  [[nodiscard]] bool finished() const;

  /// Facade-compatible result (wall_seconds 0 — timing is the caller's
  /// concern across interrupted runs).
  [[nodiscard]] RunResult result() const;

  /// Complete resumable state as a JSON body for save_checkpoint().
  [[nodiscard]] JsonValue save_state() const;

  [[nodiscard]] const ExplorerConfig& config() const { return config_; }

 private:
  const TaskGraph* tg_;
  ExplorerConfig config_;
  std::unique_ptr<SessionReplica> replica_;
};

/// Replica exchange in caller-controlled segments — the engine behind
/// ParallelExplorer::run. Segments run all replicas to the next exchange
/// barrier and then exchange, so a checkpoint taken between
/// step() calls is always at a barrier — exactly the points where the
/// uninterrupted run's replicas are in lockstep.
class CheckpointableParallelExplorer {
 public:
  CheckpointableParallelExplorer(const TaskGraph& tg, Architecture arch,
                                 const ParallelExplorerConfig& config);

  /// Fresh session on an explorer's already validated task graph and
  /// architecture (see CheckpointableExplorer).
  CheckpointableParallelExplorer(const Explorer& explorer,
                                 const ParallelExplorerConfig& config);

  /// Resume from save_state() output. `threads` overrides the worker count
  /// (0 = min(replicas, hardware concurrency)); any value is bit-identical.
  CheckpointableParallelExplorer(const TaskGraph& tg, Architecture arch,
                                 const JsonValue& state, unsigned threads = 0,
                                 const CancelToken* cancel = nullptr);

  CheckpointableParallelExplorer(CheckpointableParallelExplorer&&) noexcept;
  CheckpointableParallelExplorer& operator=(
      CheckpointableParallelExplorer&&) noexcept;
  ~CheckpointableParallelExplorer();

  /// Advance every replica to the next exchange barrier, then exchange.
  /// Returns false (and does nothing) once all replicas have finished.
  bool step();

  [[nodiscard]] bool finished() const;

  /// Facade-compatible result (wall_seconds 0).
  [[nodiscard]] ParallelRunResult result() const;

  /// Complete resumable state as a JSON body for save_checkpoint().
  [[nodiscard]] JsonValue save_state() const;

  [[nodiscard]] const ParallelExplorerConfig& config() const {
    return config_;
  }

 private:
  void exchange();

  const TaskGraph* tg_;
  ParallelExplorerConfig config_;
  std::vector<std::unique_ptr<SessionReplica>> reps_;
  std::unique_ptr<ThreadPool> pool_;
  std::int64_t exchange_rounds_ = 0;
  std::int64_t adoptions_ = 0;
  /// True once segment 0 (warm-up + first cooling chunk) has run; later
  /// segments are one chunk each.
  bool started_ = false;
};

}  // namespace rdse
