#pragma once
/// \file sweep_engine.hpp
/// \brief Deterministic parallel sweeps: the one batch runner. Repeated
/// seeded runs, parameter grids and the mapper comparison are all grids of
/// registered mappers sharded over one worker pool.
///
/// The paper's headline results are *batches* of explorations — Fig. 3
/// averages 100 annealing runs per device size — and each run is
/// independent, so the sweep layer treats design-space exploration as an
/// embarrassingly parallel batch over configurations (the way the
/// microthreaded many-core and BRISC-V DSE toolflows do). Every (point,
/// run) pair becomes one pool job that calls the point's mapper with its
/// own RNG stream derived the same way the serial loops derive it
/// (`config.seed + run`), and results land in pre-sized slots indexed by
/// (point, run): the merged output is bit-identical to the serial path for
/// any thread count — the per-run wall-clock times are the only fields that
/// differ.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "baseline/mapper.hpp"

namespace rdse {

/// Aggregates over repeated runs (Fig. 3 averages 100 runs per point).
struct RunAggregate {
  int runs = 0;
  double mean_makespan_ms = 0.0;
  double stddev_makespan_ms = 0.0;
  double best_makespan_ms = 0.0;
  double worst_makespan_ms = 0.0;
  double mean_init_reconfig_ms = 0.0;
  double mean_dyn_reconfig_ms = 0.0;
  double mean_contexts = 0.0;
  double mean_hw_tasks = 0.0;
  double mean_wall_seconds = 0.0;
  /// Fraction of runs whose best solution met the deadline (if any).
  double deadline_hit_rate = 0.0;
};

/// Aggregate repeated-run statistics from each run's best metrics and wall
/// time (deadline 0 = none). Requires at least one run.
[[nodiscard]] RunAggregate aggregate_runs(std::span<const MapperResult> runs,
                                          TimeNs deadline);

/// One grid point of a sweep: a registered mapper, the (architecture,
/// run config) pair it runs on, and presentation metadata. Points are
/// independent — each may carry its own mapper, device size, schedule, seed
/// or move mix.
struct SweepPoint {
  std::string label;  ///< e.g. "800 CLBs" or "greedy"
  double x = 0.0;     ///< numeric axis value for tables and plots
  Architecture arch;
  ExplorerConfig config;
  std::string mapper = "anneal";  ///< registered mapper name

  SweepPoint() : arch(Bus(1)) {}
  SweepPoint(std::string label_, double x_, Architecture arch_,
             ExplorerConfig config_, std::string mapper_ = "anneal")
      : label(std::move(label_)),
        x(x_),
        arch(std::move(arch_)),
        config(std::move(config_)),
        mapper(std::move(mapper_)) {}
};

/// A parameterized exploration batch: an axis of points, each explored
/// `runs_per_point` times with seeds config.seed .. config.seed + runs - 1.
struct SweepSpec {
  std::string name;        ///< e.g. "device-size"
  std::string axis_label;  ///< e.g. "FPGA size (CLBs)"
  int runs_per_point = 1;  ///< 0 is valid: spec-only (dry) sweeps
  TimeNs deadline = 0;     ///< constraint for hit-rate aggregation (0 = none)
  std::vector<SweepPoint> points;
};

/// Results of one grid point, runs kept in seed order.
struct SweepPointResult {
  std::string label;
  double x = 0.0;
  std::string mapper;  ///< the registered mapper that ran the point
  /// Zeroed when runs_per_point == 0 (dry/planned sweeps).
  RunAggregate aggregate;
  /// Per-run results in seed order.
  std::vector<MapperResult> runs;
};

struct SweepResult {
  std::string name;
  std::string axis_label;
  TimeNs deadline = 0;
  /// One entry per spec point, in spec order.
  std::vector<SweepPointResult> points;
};

/// Shards exploration batches over a util/ThreadPool. Thread count is a
/// throughput knob only: every run's seed is a pure function of its (point,
/// run) index, and results are merged in index order, so any `threads`
/// value — including 1 — produces the same batch, bit-identical to calling
/// `make_mapper(point.mapper)->run` once per seed (and, for the anneal
/// mapper, to the serial `Explorer::run_many` loop in every field a
/// MapperResult carries).
class SweepEngine {
 public:
  /// `threads` == 0 picks the hardware concurrency (at least 1).
  explicit SweepEngine(unsigned threads = 0) : threads_(threads) {}

  /// Run every (point, run) pair of the sweep as one pool job that calls
  /// the point's mapper with seed point.config.seed + run. Every mapper
  /// name is resolved before any job is queued, so an unknown one throws
  /// Error without running anything. The task graph must outlive the call;
  /// per-point aggregates use `spec.deadline`. A negative
  /// `runs_per_point` throws Error, and any job failure propagates as the
  /// job's exception after the batch barrier. Deterministic mappers still
  /// run once per seed (their results are identical by contract, which the
  /// property suite asserts).
  [[nodiscard]] SweepResult run(const TaskGraph& tg,
                                const SweepSpec& spec) const;

  /// Effective worker count a run with this configuration would use for
  /// `jobs` parallel jobs.
  [[nodiscard]] unsigned resolved_threads(std::size_t jobs) const;

 private:
  unsigned threads_;
};

/// The paper's Fig. 3 device-size grid (CLBs): the default device-size
/// axis of `rdse sweep` and serve.
inline constexpr std::int32_t kFig3DeviceSizes[] = {
    100, 200, 400, 600, 800, 1000, 1500, 2000, 3000, 4000, 5000, 7000, 10000};

/// The Fig. 3 study as a spec: one point per device size, each a
/// CPU + FPGA platform built with make_cpu_fpga_architecture.
[[nodiscard]] SweepSpec device_size_sweep(std::span<const std::int32_t> sizes,
                                          TimeNs tr_per_clb,
                                          std::int64_t bus_bytes_per_second,
                                          const ExplorerConfig& config,
                                          int runs_per_point, TimeNs deadline);

/// A cooling-schedule ablation axis over one fixed architecture.
[[nodiscard]] SweepSpec schedule_sweep(std::span<const ScheduleKind> kinds,
                                       const Architecture& arch,
                                       const ExplorerConfig& config,
                                       int runs_per_point, TimeNs deadline);

/// The mapper comparison behind `rdse bench`: one point per mapper name,
/// all on one architecture and config and all under one `label` and axis
/// value `x`, so `rdse compare` pairs their artifacts by label. With one
/// name it is a seeded batch of that mapper (`rdse explore --runs`,
/// serve's explore).
[[nodiscard]] SweepSpec mapper_sweep(std::span<const std::string> mappers,
                                     const Architecture& arch,
                                     const ExplorerConfig& config,
                                     int runs_per_point, TimeNs deadline,
                                     const std::string& label, double x);

}  // namespace rdse
