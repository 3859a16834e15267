#pragma once
/// \file sweep_engine.hpp
/// \brief Deterministic parallel sweeps: shard repeated runs and parameter
/// grids over the worker pool.
///
/// The paper's headline results are *batches* of explorations — Fig. 3
/// averages 100 annealing runs per device size — and each run is
/// independent, so the sweep layer treats design-space exploration as an
/// embarrassingly parallel batch over configurations (the way the
/// microthreaded many-core and BRISC-V DSE toolflows do). Every (point,
/// run) pair becomes one pool job with its own RNG stream derived the same
/// way the serial loops derive it (`config.seed + run`), and results land
/// in pre-sized slots indexed by (point, run): the merged output is
/// bit-identical to the serial path for any thread count — the per-run
/// wall-clock times are the only fields that differ.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/explorer.hpp"

namespace rdse {

class Mapper;
struct MapperResult;

/// One grid point of a sweep: a complete (architecture, exploration config)
/// pair plus presentation metadata. Points are independent — each may carry
/// its own device size, schedule, seed or move mix.
struct SweepPoint {
  std::string label;  ///< e.g. "800 CLBs" or "greedy"
  double x = 0.0;     ///< numeric axis value for tables and plots
  Architecture arch;
  ExplorerConfig config;

  SweepPoint() : arch(Bus(1)) {}
  SweepPoint(std::string label_, double x_, Architecture arch_,
             ExplorerConfig config_)
      : label(std::move(label_)),
        x(x_),
        arch(std::move(arch_)),
        config(std::move(config_)) {}
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
  /// Zeroed when runs_per_point == 0 (dry/planned sweeps).
  RunAggregate aggregate;
  /// Per-run results in seed order, traces included.
  std::vector<RunResult> runs;
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
/// value — including 1 — produces the same batch, bit-identical to the
/// serial `Explorer::run_many` loops it replaces.
class SweepEngine {
 public:
  /// `threads` == 0 picks the hardware concurrency (at least 1).
  explicit SweepEngine(unsigned threads = 0) : threads_(threads) {}

  /// `n` independent runs of one registered mapper with seeds config.seed
  /// .. config.seed + n - 1, dispatched as pool jobs and returned in seed
  /// order — bit-identical to the serial loop for any thread count (with
  /// the anneal mapper, to Explorer::run_many in every field a
  /// MapperResult carries). `n` == 0 returns an empty vector; `n` < 0
  /// throws Error. Any job failure propagates as the job's exception after
  /// the batch barrier. Deterministic mappers still run once per seed
  /// (their results are identical by contract, which the property suite
  /// asserts).
  [[nodiscard]] std::vector<MapperResult> run_mapper_many(
      const Mapper& mapper, const TaskGraph& tg, const Architecture& arch,
      const ExplorerConfig& config, int n) const;

  /// Run every (point, run) pair of the sweep as one pool job. The task
  /// graph must outlive the call; each point's architecture is copied into
  /// its runs. Per-point aggregates use `spec.deadline`.
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

}  // namespace rdse
