#include "core/checkpoint.hpp"

#include <algorithm>
#include <limits>
#include <thread>
#include <utility>

#include "mapping/io.hpp"
#include "util/assert.hpp"
#include "util/hash.hpp"
#include "util/record_log.hpp"
#include "util/thread_pool.hpp"

namespace rdse {

namespace {

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

/// doc[key] as an integer in [min, max]: a decoded field is never narrowed.
std::int64_t int_in(const JsonValue& doc, const char* key, std::int64_t min,
                    std::int64_t max) {
  return doc.at(key).as_int_in(
      min, max, std::string("checkpoint: '") + key + "' must be an integer");
}

const char* init_kind_name(InitKind kind) {
  switch (kind) {
    case InitKind::kRandomPartition: return "random-partition";
    case InitKind::kAllSoftware: return "all-software";
  }
  return "?";
}

InitKind init_kind_from_name(const std::string& name) {
  if (name == "random-partition") return InitKind::kRandomPartition;
  if (name == "all-software") return InitKind::kAllSoftware;
  throw Error("checkpoint: unknown init kind '" + name + "'");
}

ScheduleKind schedule_kind_from_name(const std::string& name) {
  const auto kind = schedule_from_name(name);
  if (!kind.has_value()) {
    throw Error("checkpoint: unknown schedule '" + name + "'");
  }
  return *kind;
}

JsonValue move_config_to_json(const MoveConfig& m) {
  JsonValue doc = JsonValue::object();
  doc.set("p_zero", m.p_zero);
  doc.set("p_change_impl", m.p_change_impl);
  doc.set("p_reorder_contexts", m.p_reorder_contexts);
  doc.set("p_resource_target", m.p_resource_target);
  doc.set("enable_reorder_sw", m.enable_reorder_sw);
  doc.set("enable_reassign", m.enable_reassign);
  return doc;
}

MoveConfig move_config_from_json(const JsonValue& doc) {
  MoveConfig m;
  m.p_zero = doc.at("p_zero").as_number();
  m.p_change_impl = doc.at("p_change_impl").as_number();
  m.p_reorder_contexts = doc.at("p_reorder_contexts").as_number();
  m.p_resource_target = doc.at("p_resource_target").as_number();
  m.enable_reorder_sw = doc.at("enable_reorder_sw").as_bool();
  m.enable_reassign = doc.at("enable_reassign").as_bool();
  return m;
}

JsonValue cost_weights_to_json(const CostWeights& w) {
  JsonValue doc = JsonValue::object();
  doc.set("time_weight", w.time_weight);
  doc.set("price_weight", w.price_weight);
  doc.set("deadline_penalty_per_ms", w.deadline_penalty_per_ms);
  doc.set("deadline", w.deadline);
  return doc;
}

CostWeights cost_weights_from_json(const JsonValue& doc) {
  CostWeights w;
  w.time_weight = doc.at("time_weight").as_number();
  w.price_weight = doc.at("price_weight").as_number();
  w.deadline_penalty_per_ms = doc.at("deadline_penalty_per_ms").as_number();
  w.deadline = doc.at("deadline").as_int();
  return w;
}

JsonValue move_stats_to_json(
    const std::array<MoveClassStats, kMoveKindCount>& stats) {
  JsonValue arr = JsonValue::array();
  for (const MoveClassStats& s : stats) {
    JsonValue row = JsonValue::array();
    row.push_back(s.drawn);
    row.push_back(s.null_draws);
    row.push_back(s.infeasible);
    row.push_back(s.evaluated);
    row.push_back(s.accepted);
    arr.push_back(std::move(row));
  }
  return arr;
}

std::array<MoveClassStats, kMoveKindCount> move_stats_from_json(
    const JsonValue& doc) {
  RDSE_REQUIRE(doc.size() == kMoveKindCount,
               "checkpoint: move-stats class count mismatch");
  std::array<MoveClassStats, kMoveKindCount> stats{};
  for (std::size_t k = 0; k < kMoveKindCount; ++k) {
    const JsonValue& row = doc.items()[k];
    RDSE_REQUIRE(row.size() == 5, "checkpoint: malformed move-stats row");
    stats[k].drawn = row.items()[0].as_int();
    stats[k].null_draws = row.items()[1].as_int();
    stats[k].infeasible = row.items()[2].as_int();
    stats[k].evaluated = row.items()[3].as_int();
    stats[k].accepted = row.items()[4].as_int();
  }
  return stats;
}

}  // namespace

// ------------------------------------------------------------ architecture

JsonValue architecture_to_json(const Architecture& arch) {
  JsonValue doc = JsonValue::object();
  doc.set("bus_bytes_per_second", arch.bus().bytes_per_second());
  JsonValue slots = JsonValue::array();
  for (ResourceId id = 0; id < arch.slot_count(); ++id) {
    if (!arch.alive(id)) {
      slots.push_back(JsonValue());  // tombstone
      continue;
    }
    const Resource& res = arch.resource(id);
    JsonValue slot = JsonValue::object();
    slot.set("kind", to_string(res.kind()));
    slot.set("name", res.name());
    slot.set("price", res.price());
    switch (res.kind()) {
      case ResourceKind::kProcessor:
        slot.set("speed_factor", res.speed_factor());
        break;
      case ResourceKind::kAsic:
        break;
      case ResourceKind::kReconfigurable:
        slot.set("n_clbs", static_cast<std::int64_t>(res.n_clbs()));
        slot.set("tr_per_clb", res.tr_per_clb());
        break;
    }
    slots.push_back(std::move(slot));
  }
  doc.set("slots", std::move(slots));
  return doc;
}

Architecture architecture_from_json(const JsonValue& doc) {
  Architecture arch(Bus(doc.at("bus_bytes_per_second").as_int()));
  for (const JsonValue& slot : doc.at("slots").items()) {
    if (slot.is_null()) {
      // Rebuild the tombstone so later resource ids keep their positions.
      const ResourceId id = arch.add_processor("tombstone");
      arch.remove(id);
      continue;
    }
    const std::string& kind = slot.at("kind").as_string();
    const std::string& name = slot.at("name").as_string();
    const double price = slot.at("price").as_number();
    if (kind == "processor") {
      (void)arch.add_processor(name, price,
                               slot.at("speed_factor").as_number());
    } else if (kind == "asic") {
      (void)arch.add_asic(name, price);
    } else if (kind == "reconfigurable") {
      const ResourceId id = arch.add_reconfigurable(
          name, static_cast<std::int32_t>(int_in(slot, "n_clbs", 1, kIntMax)),
          slot.at("tr_per_clb").as_int());
      // add_reconfigurable derives the price from its CLB count; every
      // creation site in the library does the same, so a mismatch means
      // the file does not describe a system this build can reconstruct.
      RDSE_REQUIRE(arch.resource(id).price() == price,
                   "checkpoint: reconfigurable price mismatch");
    } else {
      throw Error("checkpoint: unknown resource kind '" + kind + "'");
    }
  }
  return arch;
}

// ----------------------------------------------------------------- metrics

JsonValue metrics_to_json(const Metrics& m) {
  JsonValue doc = JsonValue::object();
  doc.set("makespan", m.makespan);
  doc.set("init_reconfig", m.init_reconfig);
  doc.set("dyn_reconfig", m.dyn_reconfig);
  doc.set("comm_cross", m.comm_cross);
  doc.set("sw_busy", m.sw_busy);
  doc.set("hw_busy", m.hw_busy);
  doc.set("n_contexts", m.n_contexts);
  doc.set("sw_tasks", m.sw_tasks);
  doc.set("hw_tasks", m.hw_tasks);
  doc.set("clbs_loaded", static_cast<std::int64_t>(m.clbs_loaded));
  doc.set("max_context_clbs", static_cast<std::int64_t>(m.max_context_clbs));
  return doc;
}

Metrics metrics_from_json(const JsonValue& doc) {
  Metrics m;
  m.makespan = doc.at("makespan").as_int();
  m.init_reconfig = doc.at("init_reconfig").as_int();
  m.dyn_reconfig = doc.at("dyn_reconfig").as_int();
  m.comm_cross = doc.at("comm_cross").as_int();
  m.sw_busy = doc.at("sw_busy").as_int();
  m.hw_busy = doc.at("hw_busy").as_int();
  m.n_contexts = static_cast<int>(int_in(doc, "n_contexts", 0, kIntMax));
  m.sw_tasks = static_cast<int>(int_in(doc, "sw_tasks", 0, kIntMax));
  m.hw_tasks = static_cast<int>(int_in(doc, "hw_tasks", 0, kIntMax));
  m.clbs_loaded =
      static_cast<std::int32_t>(int_in(doc, "clbs_loaded", 0, kIntMax));
  m.max_context_clbs =
      static_cast<std::int32_t>(int_in(doc, "max_context_clbs", 0, kIntMax));
  return m;
}

// ----------------------------------------------------------------- configs

namespace {

/// The eleven trajectory fields of ExplorerConfig, which
/// ParallelExplorerConfig inherits. set() keeps a key's position when it
/// already exists, so a codec that lays out its own key order first keeps
/// that order.
void shared_config_to_json(const ExplorerConfig& config, JsonValue& doc) {
  doc.set("seed", u64_to_hex(config.seed));
  doc.set("iterations", config.iterations);
  doc.set("warmup_iterations", config.warmup_iterations);
  doc.set("schedule", to_string(config.schedule));
  doc.set("init", init_kind_name(config.init));
  doc.set("moves", move_config_to_json(config.moves));
  doc.set("cost", cost_weights_to_json(config.cost));
  doc.set("adaptive_move_mix", config.adaptive_move_mix);
  doc.set("full_eval", config.full_eval);
  doc.set("batch", config.batch);
  doc.set("freeze_after", config.freeze_after);
}

void shared_config_from_json(const JsonValue& doc, ExplorerConfig& config) {
  config.seed = u64_from_hex(doc.at("seed").as_string());
  config.iterations = doc.at("iterations").as_int();
  config.warmup_iterations = doc.at("warmup_iterations").as_int();
  config.schedule = schedule_kind_from_name(doc.at("schedule").as_string());
  config.init = init_kind_from_name(doc.at("init").as_string());
  config.moves = move_config_from_json(doc.at("moves"));
  config.cost = cost_weights_from_json(doc.at("cost"));
  config.adaptive_move_mix = doc.at("adaptive_move_mix").as_bool();
  config.full_eval = doc.at("full_eval").as_bool();
  config.batch = static_cast<int>(int_in(doc, "batch", 1, kIntMax));
  config.freeze_after = doc.at("freeze_after").as_int();
  config.record_trace = false;
}

}  // namespace

JsonValue explorer_config_to_json(const ExplorerConfig& config) {
  JsonValue doc = JsonValue::object();
  shared_config_to_json(config, doc);
  return doc;
}

ExplorerConfig explorer_config_from_json(const JsonValue& doc) {
  ExplorerConfig config;
  shared_config_from_json(doc, config);
  return config;
}

JsonValue parallel_explorer_config_to_json(
    const ParallelExplorerConfig& config) {
  JsonValue ladder = JsonValue::array();
  for (const ScheduleKind kind : config.replica_schedules) {
    ladder.push_back(to_string(kind));
  }
  // The v1 key order interleaves the parallel-only keys with the shared
  // ones: lay it out, then let the shared writer fill its slots.
  JsonValue doc = JsonValue::object();
  doc.set("seed", JsonValue());
  doc.set("replicas", config.replicas);
  doc.set("iterations", JsonValue());
  doc.set("warmup_iterations", JsonValue());
  doc.set("exchange_interval", config.exchange_interval);
  doc.set("schedule", JsonValue());
  doc.set("replica_schedules", std::move(ladder));
  shared_config_to_json(config, doc);
  return doc;
}

ParallelExplorerConfig parallel_explorer_config_from_json(
    const JsonValue& doc) {
  ParallelExplorerConfig config;
  shared_config_from_json(doc, config);
  config.replicas = static_cast<int>(int_in(doc, "replicas", 1, kIntMax));
  config.exchange_interval = doc.at("exchange_interval").as_int();
  config.replica_schedules.clear();
  for (const JsonValue& kind : doc.at("replica_schedules").items()) {
    config.replica_schedules.push_back(
        schedule_kind_from_name(kind.as_string()));
  }
  return config;
}

// ------------------------------------------------------------ file envelope

bool save_checkpoint(const std::string& path, const JsonValue& body) {
  return write_sealed_document(path, kCheckpointFormat, body);
}

JsonValue load_checkpoint(const std::string& path) {
  return read_sealed_document(path, kCheckpointFormat);
}

// ---------------------------------------------------------------- sessions

namespace {

/// The config check of every parallel start, fresh or resumed, so a
/// hand-edited state cannot get past what a fresh start rejects. (A serial
/// start needs none of its own: its engine rejects negative counts.)
void check_config(const ParallelExplorerConfig& config) {
  RDSE_REQUIRE(config.replicas >= 1,
               "ParallelExplorer: need at least one replica");
  RDSE_REQUIRE(config.iterations >= 0 && config.warmup_iterations >= 0 &&
                   config.exchange_interval >= 0,
               "ParallelExplorer: negative iteration counts");
}

/// A checkpointed system: the architecture under "<which>_architecture"
/// and the solution under "<which>_solution", whose records must name that
/// architecture's resources.
std::pair<Architecture, Solution> system_from_json(const TaskGraph& tg,
                                                   const JsonValue& doc,
                                                   const std::string& which) {
  Architecture arch = architecture_from_json(doc.at(which + "_architecture"));
  Solution sol =
      solution_from_text(tg, arch, doc.at(which + "_solution").as_string());
  return {std::move(arch), std::move(sol)};
}

/// The start of every run.
Solution initial_solution(const Explorer& explorer, InitKind init,
                          std::uint64_t seed) {
  Rng init_rng(seed ^ 0x5851F42D4C957F2DULL);
  return explorer.initial_solution(init, init_rng);
}

/// `threads` workers; 0 = min(replicas, hardware concurrency).
std::unique_ptr<ThreadPool> make_pool(unsigned threads, int replicas) {
  if (threads == 0) {
    threads =
        std::min<unsigned>(static_cast<unsigned>(replicas),
                           std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::make_unique<ThreadPool>(threads);
}

/// A parallel replica runs the serial fields of the parallel config at its
/// own stream seed and ladder rung, so without exchange replica r
/// reproduces Explorer::run at seed replica_seed(seed, r).
ExplorerConfig replica_config(const ParallelExplorerConfig& parallel,
                              std::uint64_t seed, ScheduleKind schedule) {
  ExplorerConfig config = parallel;
  config.seed = seed;
  config.schedule = schedule;
  return config;
}

}  // namespace

/// One annealing chain: a serial run, or one replica of a parallel run.
/// Heap-held and never moved: the engine's trace hook points into the
/// replica, so sessions move without re-pointing it.
struct SessionReplica {
  SessionReplica(const SessionReplica&) = delete;
  SessionReplica& operator=(const SessionReplica&) = delete;

  SessionReplica(const Explorer& explorer, const ExplorerConfig& config)
      : SessionReplica(
            explorer.task_graph(), config,
            {explorer.architecture(),
             initial_solution(explorer, config.init, config.seed)}) {}

  /// Resume: the checkpointed current state, then the engine's counters,
  /// RNG and schedule over the fresh-start values, then the best state
  /// (the engine's constructor snapshots the current state as best).
  SessionReplica(const TaskGraph& tg, const ExplorerConfig& config,
                 const JsonValue& initial, const JsonValue& doc,
                 const JsonValue& engine_state)
      : SessionReplica(tg, config, system_from_json(tg, doc, "current")) {
    initial_metrics = metrics_from_json(initial);
    engine.load_state(engine_state);
    auto [best_arch, best_sol] = system_from_json(tg, doc, "best");
    problem.restore_best_state(std::move(best_arch), std::move(best_sol));
    problem.set_move_stats(move_stats_from_json(doc.at("move_stats")));
    if (const JsonValue* mix = doc.find("move_mix")) {
      RDSE_REQUIRE(problem.move_mix() != nullptr,
                   "checkpoint: move-mix state without adaptive_move_mix");
      problem.move_mix()->load_state(*mix);
    }
  }

  SessionReplica(const TaskGraph& tg, const ExplorerConfig& config,
                 std::pair<Architecture, Solution> start)
      : seed(config.seed),
        schedule(config.schedule),
        problem(tg, std::move(start.first), std::move(start.second),
                config.moves, config.cost, config.adaptive_move_mix,
                config.full_eval, config.batch),
        initial_metrics(problem.current_metrics()),
        engine(problem, anneal_config(config)) {}

  AnnealConfig anneal_config(const ExplorerConfig& config) {
    AnnealConfig ac;
    ac.seed = seed;
    ac.iterations = config.iterations;
    ac.warmup_iterations = config.warmup_iterations;
    ac.schedule = schedule;
    ac.freeze_after = config.freeze_after;
    ac.cancel = config.cancel;
    if (!config.record_trace) return ac;
    const std::int64_t stride = std::max<std::int64_t>(config.trace_stride, 1);
    ac.on_iteration = [this, stride](const IterationStat& s) {
      if (s.iteration % stride != 0) return;
      TraceRow row;
      row.iteration = s.iteration;
      row.cost = s.cost;
      row.best = s.best;
      row.temperature = s.temperature;
      row.n_contexts = problem.current_metrics().n_contexts;
      row.accepted = s.accepted;
      row.warmup = s.warmup;
      trace.add(row);
    };
    return ac;
  }

  /// The current and best states, move statistics and move mix.
  void save(const TaskGraph& tg, JsonValue& doc) const {
    doc.set("current_architecture",
            architecture_to_json(problem.current_architecture()));
    doc.set("current_solution",
            solution_to_text(tg, problem.current_solution()));
    doc.set("best_architecture",
            architecture_to_json(problem.best_architecture()));
    doc.set("best_solution", solution_to_text(tg, problem.best_solution()));
    doc.set("move_stats", move_stats_to_json(problem.move_stats()));
    if (problem.move_mix() != nullptr) {
      JsonValue mix = JsonValue::object();
      problem.move_mix()->save_state(mix);
      doc.set("move_mix", std::move(mix));
    }
  }

  /// Everything a run reports except its wall time.
  [[nodiscard]] RunResult run_result() const {
    RunResult result;
    result.initial_metrics = initial_metrics;
    result.anneal = engine.result();
    result.best_solution = problem.best_solution();
    result.best_architecture = problem.best_architecture();
    result.best_metrics = problem.best_metrics();
    result.move_stats = problem.move_stats();
    result.trace = trace;
    return result;
  }

  std::uint64_t seed;
  ScheduleKind schedule;
  DseProblem problem;
  Metrics initial_metrics;
  Trace trace;
  AnnealEngine engine;
  std::int64_t adoptions = 0;
};

// -------------------------------------------------- CheckpointableExplorer

CheckpointableExplorer::CheckpointableExplorer(const TaskGraph& tg,
                                               Architecture arch,
                                               const ExplorerConfig& config)
    : CheckpointableExplorer(Explorer(tg, std::move(arch)), config) {}

CheckpointableExplorer::CheckpointableExplorer(const Explorer& explorer,
                                               const ExplorerConfig& config)
    : tg_(&explorer.task_graph()), config_(config) {
  // A token that fired while the run was queued stops it before the
  // (potentially expensive) initial evaluation.
  throw_if_cancelled(config_.cancel);
  replica_ = std::make_unique<SessionReplica>(explorer, config_);
}

CheckpointableExplorer::CheckpointableExplorer(const TaskGraph& tg,
                                               Architecture arch,
                                               const JsonValue& state,
                                               const CancelToken* cancel)
    : tg_(&tg), config_(explorer_config_from_json(state.at("config"))) {
  (void)Explorer(tg, std::move(arch));  // a fresh start's checks
  config_.cancel = cancel;
  replica_ =
      std::make_unique<SessionReplica>(tg, config_, state.at("initial_metrics"),
                                       state.at("problem"), state.at("engine"));
}

CheckpointableExplorer::CheckpointableExplorer(
    CheckpointableExplorer&&) noexcept = default;
CheckpointableExplorer& CheckpointableExplorer::operator=(
    CheckpointableExplorer&&) noexcept = default;
CheckpointableExplorer::~CheckpointableExplorer() = default;

std::int64_t CheckpointableExplorer::step(std::int64_t max_iterations) {
  return replica_->engine.run(max_iterations);
}

bool CheckpointableExplorer::finished() const {
  return replica_->engine.finished();
}

RunResult CheckpointableExplorer::result() const {
  return replica_->run_result();
}

JsonValue CheckpointableExplorer::save_state() const {
  JsonValue body = JsonValue::object();
  body.set("config", explorer_config_to_json(config_));
  body.set("initial_metrics", metrics_to_json(replica_->initial_metrics));
  JsonValue prob = JsonValue::object();
  replica_->save(*tg_, prob);
  body.set("problem", std::move(prob));
  body.set("engine", replica_->engine.save_state());
  return body;
}

// ------------------------------------------ CheckpointableParallelExplorer

CheckpointableParallelExplorer::CheckpointableParallelExplorer(
    const TaskGraph& tg, Architecture arch,
    const ParallelExplorerConfig& config)
    : CheckpointableParallelExplorer(Explorer(tg, std::move(arch)), config) {}

CheckpointableParallelExplorer::CheckpointableParallelExplorer(
    const Explorer& explorer, const ParallelExplorerConfig& config)
    : tg_(&explorer.task_graph()), config_(config) {
  check_config(config_);
  throw_if_cancelled(config_.cancel);
  const auto& ladder = config_.replica_schedules;
  for (int r = 0; r < config_.replicas; ++r) {
    const ScheduleKind schedule =
        ladder.empty() ? config_.schedule
                       : ladder[static_cast<std::size_t>(r) % ladder.size()];
    reps_.push_back(std::make_unique<SessionReplica>(
        explorer,
        replica_config(config_, ParallelExplorer::replica_seed(config_.seed, r),
                       schedule)));
  }
  pool_ = make_pool(config_.threads, config_.replicas);
}

CheckpointableParallelExplorer::CheckpointableParallelExplorer(
    const TaskGraph& tg, Architecture arch, const JsonValue& state,
    unsigned threads, const CancelToken* cancel)
    : tg_(&tg),
      config_(parallel_explorer_config_from_json(state.at("config"))) {
  (void)Explorer(tg, std::move(arch));  // a fresh start's checks
  config_.cancel = cancel;
  config_.threads = threads;
  check_config(config_);
  started_ = state.at("started").as_bool();
  exchange_rounds_ = state.at("exchange_rounds").as_int();
  adoptions_ = state.at("adoptions").as_int();

  const JsonValue& replicas = state.at("replicas");
  RDSE_REQUIRE(replicas.size() ==
                   static_cast<std::size_t>(config_.replicas),
               "checkpoint: replica count mismatch");
  for (const JsonValue& doc : replicas.items()) {
    reps_.push_back(std::make_unique<SessionReplica>(
        tg,
        replica_config(config_, u64_from_hex(doc.at("seed").as_string()),
                       schedule_kind_from_name(doc.at("schedule").as_string())),
        doc.at("initial_metrics"), doc, doc.at("engine")));
    reps_.back()->adoptions = doc.at("adoptions").as_int();
  }
  pool_ = make_pool(threads, config_.replicas);
}

CheckpointableParallelExplorer::CheckpointableParallelExplorer(
    CheckpointableParallelExplorer&&) noexcept = default;
CheckpointableParallelExplorer& CheckpointableParallelExplorer::operator=(
    CheckpointableParallelExplorer&&) noexcept = default;
CheckpointableParallelExplorer::~CheckpointableParallelExplorer() = default;

bool CheckpointableParallelExplorer::finished() const {
  return std::all_of(reps_.begin(), reps_.end(),
                     [](const auto& rep) { return rep->engine.finished(); });
}

bool CheckpointableParallelExplorer::step() {
  if (finished()) return false;
  const std::int64_t chunk =
      config_.exchange_interval > 0
          ? config_.exchange_interval
          : std::max<std::int64_t>(config_.iterations, 1);
  // Segment 0 covers warm-up plus the first cooling chunk so that every
  // barrier afterwards lands on a cooling-iteration boundary shared by all
  // replicas.
  const std::int64_t budget =
      started_ ? chunk : config_.warmup_iterations + chunk;
  pool_->parallel_for_index(reps_.size(), [this, budget](std::size_t i) {
    (void)reps_[i]->engine.run(budget);
  });
  started_ = true;
  if (config_.replicas > 1 && config_.exchange_interval > 0 && !finished()) {
    exchange();
  }
  return true;
}

void CheckpointableParallelExplorer::exchange() {
  // Serial, replica-ordered exchange on snapshotted states: the result
  // cannot depend on worker scheduling. Trailing replicas adopt the
  // leader's best; the leader may adopt from its ring neighbour. Only those
  // two replicas can donate, so only their states are deep-copied
  // (adoption replaces *current* states, never a donor's snapshot).
  const std::size_t n = reps_.size();
  ++exchange_rounds_;
  std::vector<double> best_cost(n);
  std::vector<double> current_cost(n);
  for (std::size_t r = 0; r < n; ++r) {
    best_cost[r] = reps_[r]->engine.best_cost();
    current_cost[r] = reps_[r]->engine.current_cost();
  }
  std::size_t leader = 0;
  for (std::size_t r = 1; r < n; ++r) {
    if (best_cost[r] < best_cost[leader]) leader = r;
  }
  const std::size_t ring = (leader + 1) % n;
  struct Donor {
    Architecture arch;
    Solution sol;
  };
  const Donor leader_donor{reps_[leader]->problem.best_architecture(),
                           reps_[leader]->problem.best_solution()};
  const Donor ring_donor{reps_[ring]->problem.best_architecture(),
                         reps_[ring]->problem.best_solution()};
  for (std::size_t r = 0; r < n; ++r) {
    SessionReplica& rep = *reps_[r];
    if (rep.engine.finished()) continue;
    const std::size_t donor_idx = r == leader ? ring : leader;
    const Donor& donor = donor_idx == leader ? leader_donor : ring_donor;
    if (best_cost[donor_idx] < current_cost[r]) {
      rep.problem.reset_state(donor.arch, donor.sol);
      rep.engine.notify_state_replaced();
      ++rep.adoptions;
      ++adoptions_;
    }
  }
}

ParallelRunResult CheckpointableParallelExplorer::result() const {
  ParallelRunResult out;
  out.exchange_rounds = exchange_rounds_;
  out.adoptions = adoptions_;
  for (std::size_t r = 0; r < reps_.size(); ++r) {
    const SessionReplica& rep = *reps_[r];
    ReplicaOutcome outcome;
    outcome.replica = static_cast<int>(r);
    outcome.seed = rep.seed;
    outcome.schedule = rep.schedule;
    outcome.anneal = rep.engine.result();
    outcome.best_metrics = rep.problem.best_metrics();
    outcome.best_cost = rep.engine.best_cost();
    outcome.adoptions = rep.adoptions;
    outcome.trace = rep.trace;
    out.replicas.push_back(std::move(outcome));
  }
  // Winner: lowest best cost, ties to the lowest replica index.
  std::size_t winner = 0;
  for (std::size_t r = 1; r < reps_.size(); ++r) {
    if (out.replicas[r].best_cost < out.replicas[winner].best_cost) winner = r;
  }
  out.best_replica = static_cast<int>(winner);
  out.best = reps_[winner]->run_result();
  return out;
}

JsonValue CheckpointableParallelExplorer::save_state() const {
  JsonValue body = JsonValue::object();
  body.set("config", parallel_explorer_config_to_json(config_));
  body.set("started", started_);
  body.set("exchange_rounds", exchange_rounds_);
  body.set("adoptions", adoptions_);
  JsonValue replicas = JsonValue::array();
  for (const auto& rep : reps_) {
    JsonValue doc = JsonValue::object();
    doc.set("seed", u64_to_hex(rep->seed));
    doc.set("schedule", to_string(rep->schedule));
    doc.set("adoptions", rep->adoptions);
    doc.set("initial_metrics", metrics_to_json(rep->initial_metrics));
    rep->save(*tg_, doc);
    doc.set("engine", rep->engine.save_state());
    replicas.push_back(std::move(doc));
  }
  body.set("replicas", std::move(replicas));
  return body;
}

}  // namespace rdse
