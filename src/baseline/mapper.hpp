#pragma once
/// \file mapper.hpp
/// \brief The unified mapper portfolio: one abstraction, one result type,
/// one registry for every exploration strategy in the repo.
///
/// A *mapper* maps the application onto the platform: it takes a task
/// graph, an architecture and one run description (ExplorerConfig) and
/// returns one MapperResult — best solution, metrics scored by the §4.4
/// evaluator, evaluation count, wall time and a JSON bag of mapper-specific
/// counters. The annealer, the GA, the deterministic [6] clustering flow,
/// hill climbing, the plain list scheduler, random sampling, HEFT and PEFT
/// all sit behind this interface, and the registry below is the only entry
/// point to each of them: `rdse explore --runs`, `rdse bench --mappers ...`,
/// `rdse sweep` and the serve front door all run a strategy through
/// `make_mapper(name)->run(...)`, batched by SweepEngine
/// (core/sweep_engine.hpp).
///
/// The registry mirrors src/model/registry: `known_mapper_names()` for
/// messages/usage, `mapper_names()` for iteration, `make_mapper(name)` for
/// construction. Every mapper is deterministic for a fixed seed; the ones
/// flagged `deterministic()` are seed-independent as well.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/explorer.hpp"
#include "util/json.hpp"

namespace rdse {

/// A mapper's run description is the explorer's. `iterations` is the
/// evaluation budget in each mapper's natural unit: annealing/hill-climb
/// moves, random samples, GA fitness evaluations. Each mapper polls
/// `cancel` at its natural granularity (moves, samples, generations) and
/// throws Cancelled when it fires. Which fields a mapper reads:
///   - anneal: every field; `record_trace` is forced off.
///   - hill_climb, random, ga: `seed`, `iterations` and `cancel` only.
///   - clustering, list_scheduler, heft, peft: `cancel` only.
/// The serve cache key relies on the stochastic non-annealers ignoring
/// `warmup_iterations`, `schedule` and `batch`. The `MapperConfig` name
/// stays because callers outside the library (perfbench) spell it.
using MapperConfig = ExplorerConfig;

/// The one result every mapper returns.
struct MapperResult {
  Solution best_solution;
  Architecture best_architecture;  ///< input platform unless the mapper
                                   ///< explores architecture moves
  Metrics best_metrics;            ///< scored by the real evaluator
  double best_cost_ms = 0.0;       ///< makespan of best_solution, ms
  std::int64_t evaluations = 0;    ///< full-solution evaluations performed
  double wall_seconds = 0.0;
  /// Mapper-specific counters (accepted moves, generations, estimated
  /// makespan, convergence history, ...) as a JSON object.
  JsonValue counters;

  MapperResult()
      : best_solution(0),
        best_architecture(Bus(1)),
        counters(JsonValue::object()) {}
};

/// Abstract mapper. Implementations are stateless beyond construction and
/// safe to call concurrently from sweep worker threads.
class Mapper {
 public:
  virtual ~Mapper() = default;

  /// Registry name ("anneal", "heft", ...).
  [[nodiscard]] virtual const char* name() const = 0;

  /// True when the result is independent of config.seed (and of the other
  /// budget fields): caches and sweep matrices need only one run.
  [[nodiscard]] virtual bool deterministic() const { return false; }

  /// Map the task graph onto the architecture. The returned solution is
  /// always feasible (it passed the evaluator); callers may additionally
  /// require_valid() it. This is the one place a mapper run is timed:
  /// `wall_seconds` covers the whole strategy call.
  [[nodiscard]] MapperResult run(const TaskGraph& tg, const Architecture& arch,
                                 const ExplorerConfig& config) const;

 private:
  /// The strategy itself; it leaves `wall_seconds` to run().
  [[nodiscard]] virtual MapperResult map(const TaskGraph& tg,
                                         const Architecture& arch,
                                         const ExplorerConfig& config) const
      = 0;
};

/// Comma-separated list of registered mapper names (for error messages and
/// usage text), in registry order.
[[nodiscard]] const std::string& known_mapper_names();

/// Registered mapper names, in registry order.
[[nodiscard]] const std::vector<std::string>& mapper_names();

[[nodiscard]] bool is_known_mapper(const std::string& name);

/// True when the registered mapper is seed-independent. Throws on unknown
/// names.
[[nodiscard]] bool mapper_is_deterministic(const std::string& name);

/// Build the mapper registered under `name`; throws Error (naming the known
/// mappers) when the name is not registered.
[[nodiscard]] std::unique_ptr<Mapper> make_mapper(const std::string& name);

}  // namespace rdse
