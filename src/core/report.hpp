#pragma once
/// \file report.hpp
/// \brief Human-readable reporting of explored solutions: assignment tables,
/// context inventories, metrics summaries, Gantt charts and move statistics.

#include <iosfwd>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "core/parallel_explorer.hpp"
#include "core/sweep_engine.hpp"
#include "sched/timeline.hpp"
#include "util/json.hpp"

namespace rdse {

/// Multi-line description of a solution: per-resource assignments, per-
/// context CLB usage, implementation choices.
[[nodiscard]] std::string describe_solution(const TaskGraph& tg,
                                            const Architecture& arch,
                                            const Solution& sol);

/// One-paragraph metric summary ("makespan 18.10 ms = ... ; 3 contexts ...").
[[nodiscard]] std::string describe_metrics(const Metrics& m);

/// Move-class statistics table.
[[nodiscard]] std::string describe_move_stats(
    const std::array<MoveClassStats, kMoveKindCount>& stats);

/// Full run report: metrics, solution, Gantt (uses the bus-serialized
/// timeline), and annealing summary.
void print_run_report(std::ostream& os, const TaskGraph& tg,
                      const RunResult& result);

/// Replica-exchange run report: per-replica table (schedule, best makespan,
/// acceptance counts, adoptions), exchange summary, then the winning
/// replica's full run report.
void print_parallel_report(std::ostream& os, const TaskGraph& tg,
                           const ParallelRunResult& result);

/// Aggregated sweep table: one row per grid point (mean/sd/best makespan,
/// reconfiguration split, contexts, hit rate).
[[nodiscard]] std::string describe_sweep(const SweepResult& sweep);

/// ASCII plot of the sweep (mean makespan, reconfiguration components and
/// context count vs the axis) — the Fig. 3 rendering. Empty string when the
/// sweep has fewer than two aggregated points.
[[nodiscard]] std::string plot_sweep(const SweepResult& sweep);

/// The RunAggregate statistics ("runs" .. "deadline_hit_rate") as JSON
/// members appended to `doc`, in artifact order. The one writer behind
/// every rdse.sweep.v1 point and serve's explore aggregate; it writes no
/// wall-clock field, so its output is a pure function of the runs.
[[nodiscard]] JsonValue aggregate_to_json(const RunAggregate& a,
                                          JsonValue doc = JsonValue::object());

/// One rdse.sweep.v1 point: its label and axis value, then the aggregate.
[[nodiscard]] JsonValue sweep_point_to_json(const std::string& label,
                                            double x, const RunAggregate& a);

/// Machine-readable sweep artifact (schema "rdse.sweep.v1"): sweep
/// metadata plus one object per point carrying the full RunAggregate. It
/// holds no wall-clock or thread-count field, so the same command writes
/// the same bytes for any --threads value. The caller may attach extra
/// top-level fields (model name, dry_run, ...) before dumping.
[[nodiscard]] JsonValue sweep_to_json(const SweepResult& sweep);

/// One `rdse bench` artifact (rdse.sweep.v1) for one mapper point of a
/// mapper_sweep: the sweep metadata, the model, the point's mapper and its
/// determinism flag, the mean evaluation count, the first run's counters
/// and the point itself under the label every mapper shares. Like
/// sweep_to_json it writes no wall-clock or thread-count field. The point
/// must have runs.
[[nodiscard]] JsonValue mapper_point_to_json(const SweepResult& sweep,
                                             const SweepPointResult& point,
                                             const std::string& model);

/// The `rdse bench` comparison table: one row per mapper point, "*"
/// marking the deterministic mappers, with each mapper's mean wall time.
[[nodiscard]] std::string describe_mapper_sweep(const SweepResult& sweep);

/// Check a parsed artifact against the rdse.sweep.v1 schema. Returns a
/// human-readable message per violation; empty means valid. Unknown
/// fields are ignored, so older artifacts that still carry "threads" and
/// "wall_seconds" stay valid.
[[nodiscard]] std::vector<std::string> validate_sweep_json(
    const JsonValue& artifact);

/// Re-render a (valid) rdse.sweep.v1 artifact as the aggregate table (and
/// plot, when it has >= 2 points with runs) — the `rdse report` view.
[[nodiscard]] std::string render_sweep_artifact(const JsonValue& artifact);

}  // namespace rdse
