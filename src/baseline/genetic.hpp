#pragma once
/// \file genetic.hpp
/// \brief The genetic-algorithm baseline of Ben Chehida & Auguin [6].
///
/// §2: "Spatial partitioning is explored with a genetic algorithm. For each
/// such solution, temporal partitioning is effected by means of a
/// clustering technique and is followed by global scheduling. The two
/// algorithms employed after spatial partitioning are deterministic and
/// generate a single temporal partitioning and a single schedule for each
/// spatial partitioning solution."
///
/// The chromosome encodes, per task, the hardware bit and the
/// implementation index. Decoding runs the deterministic clustering
/// (baseline/clustering.hpp) and the deterministic priority list scheduler
/// (baseline/list_scheduler.hpp), then the *same* §4.4 evaluator scores the
/// resulting solution, so SA-vs-GA comparisons isolate the exploration
/// strategy. Population size defaults to 300 as reported in §5.

#include <cstdint>
#include <vector>

#include "baseline/mapper.hpp"
#include "core/explorer.hpp"
#include "sched/evaluator.hpp"

namespace rdse {

struct Gene {
  bool hw = false;
  std::uint32_t impl = 0;
};
using Chromosome = std::vector<Gene>;

struct GaConfig {
  std::uint64_t seed = 1;
  int population = 300;  ///< [6] uses 300
  int generations = 80;
  double crossover_rate = 0.9;
  /// Per-gene mutation probability; 0 selects the 1/N default.
  double mutation_rate = 0.0;
  int tournament = 3;
  int elites = 2;
  /// Optional cooperative-cancellation token, polled once per generation
  /// (null = never cancelled). A token that never fires does not change
  /// results in any bit.
  const CancelToken* cancel = nullptr;
};

class GeneticPartitioner {
 public:
  /// Requires an architecture with >= 1 processor and exactly >= 1 RC; the
  /// first of each is used (as in [6]'s CPU+FPGA platform).
  GeneticPartitioner(const TaskGraph& tg, const Architecture& arch);

  /// Returns the unified mapper result; the per-generation convergence
  /// curve lands in counters["best_history"]. `wall_seconds` stays 0: the
  /// "ga" mapper's Mapper::run times the call.
  [[nodiscard]] MapperResult run(const GaConfig& config) const;

  /// Deterministic decoding of a chromosome into a full solution
  /// (exposed for tests). Genes of software-only or non-fitting tasks are
  /// silently treated as software.
  [[nodiscard]] Solution decode(const Chromosome& chromosome) const;

  /// Random chromosome (uniform bit, uniform implementation).
  [[nodiscard]] Chromosome random_chromosome(Rng& rng) const;

 private:
  const TaskGraph* tg_;
  const Architecture* arch_;
  ResourceId rc_;
};

}  // namespace rdse
