#pragma once
/// \file mapper_bench.hpp
/// \brief The mapper comparison matrix behind `rdse bench --mappers`: run
/// every requested mapper over the same model × seed grid on SweepEngine
/// and emit one rdse.sweep.v1 artifact per mapper for `rdse compare`.
///
/// Each mapper's artifact carries a single sweep point whose label is
/// shared across the matrix (mapper identity lives in the top-level
/// "mapper" field instead), so `rdse compare heft.json anneal.json` pairs
/// the points by label and gates mean/best makespan across mappers — the
/// CTest gates that keep the annealer ahead of every other mapper. The
/// artifacts contain no wall-clock or thread-count fields: repeated runs
/// with the same seed are bit-identical for any --threads value.

#include <string>
#include <vector>

#include "baseline/mapper.hpp"
#include "core/sweep_engine.hpp"
#include "util/json.hpp"

namespace rdse {

/// One comparison matrix: a list of registered mapper names, the shared
/// run configuration, and the point metadata every artifact shares.
struct MapperMatrixSpec {
  std::vector<std::string> mappers;
  ExplorerConfig config;
  int runs_per_mapper = 3;  ///< seeds config.seed .. config.seed + runs - 1
  TimeNs deadline = 0;
  std::string model;  ///< model name, recorded in the artifacts
  std::string label;  ///< shared point label, e.g. "motion @ 2000 CLBs"
  double x = 0.0;     ///< numeric axis value (device size in CLBs)
};

struct MapperMatrixEntry {
  std::string mapper;
  bool deterministic = false;
  RunAggregate aggregate;
  /// Per-run results in seed order.
  std::vector<MapperResult> runs;
};

struct MapperMatrixResult {
  std::string model;
  std::string label;
  double x = 0.0;
  TimeNs deadline = 0;
  /// One entry per requested mapper, in spec order.
  std::vector<MapperMatrixEntry> entries;
};

/// Run the matrix: each mapper's seed batch is sharded over the engine's
/// pool (mappers themselves run sequentially — their wall times stay
/// comparable that way). Throws on unknown mapper names.
[[nodiscard]] MapperMatrixResult run_mapper_matrix(const SweepEngine& engine,
                                                   const TaskGraph& tg,
                                                   const Architecture& arch,
                                                   const MapperMatrixSpec&
                                                       spec);

/// One mapper's rdse.sweep.v1 artifact: sweep metadata, the shared-label
/// point with the full aggregate, the mapper name/determinism flag, the
/// mean evaluation count and the first run's counters. Deliberately no
/// wall-clock or thread-count fields — the artifact is a pure function of
/// (model, mapper, seed, budget), so repeated runs are bit-identical.
[[nodiscard]] JsonValue mapper_matrix_entry_to_json(
    const MapperMatrixResult& matrix, const MapperMatrixEntry& entry);

/// Artifact path for one mapper: "<prefix>-<mapper>.json".
[[nodiscard]] std::string mapper_artifact_path(const std::string& prefix,
                                               const std::string& mapper);

/// Comparison table over the matrix (one row per mapper).
[[nodiscard]] std::string describe_mapper_matrix(
    const MapperMatrixResult& matrix);

}  // namespace rdse
