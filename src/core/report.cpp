#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/ascii_plot.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"

namespace rdse {

std::string describe_solution(const TaskGraph& tg, const Architecture& arch,
                              const Solution& sol) {
  std::ostringstream os;
  for (const ResourceId id : arch.live_ids()) {
    const Resource& res = arch.resource(id);
    switch (res.kind()) {
      case ResourceKind::kProcessor: {
        os << res.name() << " (processor, total order):\n  ";
        const auto order = sol.processor_order(id);
        if (order.empty()) {
          os << "(idle)";
        }
        for (std::size_t i = 0; i < order.size(); ++i) {
          os << (i ? " -> " : "") << tg.task(order[i]).name;
        }
        os << '\n';
        break;
      }
      case ResourceKind::kReconfigurable: {
        const auto& dev = arch.reconfigurable(id);
        os << res.name() << " (reconfigurable, " << dev.n_clbs()
           << " CLBs, tR=" << to_us(dev.tr_per_clb()) << " us/CLB):\n";
        const std::size_t n_ctx = sol.context_count(id);
        if (n_ctx == 0) {
          os << "  (no contexts)\n";
        }
        for (std::size_t c = 0; c < n_ctx; ++c) {
          os << "  context C" << (c + 1) << " ["
             << sol.context_clbs(id, c) << " CLBs]:";
          for (TaskId t : sol.context_tasks(id, c)) {
            const Placement& p = sol.placement(t);
            const auto& impl = tg.task(t).hw.at(p.impl);
            os << ' ' << tg.task(t).name << "(impl" << p.impl << ':'
               << impl.clbs << "clb," << format_double(to_ms(impl.time), 2)
               << "ms)";
          }
          os << '\n';
        }
        break;
      }
      case ResourceKind::kAsic: {
        os << res.name() << " (asic, partial order):\n ";
        const auto members = sol.asic_tasks(id);
        if (members.empty()) os << " (idle)";
        for (TaskId t : members) {
          os << ' ' << tg.task(t).name;
        }
        os << '\n';
        break;
      }
    }
  }
  return os.str();
}

std::string describe_metrics(const Metrics& m) {
  std::ostringstream os;
  os << "makespan " << format_ms(m.makespan) << " | reconfiguration "
     << format_ms(m.total_reconfig()) << " (initial "
     << format_ms(m.init_reconfig) << " + dynamic "
     << format_ms(m.dyn_reconfig) << ") | bus transfers "
     << format_ms(m.comm_cross) << " | " << m.n_contexts << " context(s), "
     << m.hw_tasks << " hw / " << m.sw_tasks << " sw tasks | "
     << m.clbs_loaded << " CLBs loaded (max context " << m.max_context_clbs
     << ")";
  return os.str();
}

std::string describe_move_stats(
    const std::array<MoveClassStats, kMoveKindCount>& stats) {
  Table table({"move class", "drawn", "null", "cyclic", "evaluated",
               "accepted", "accept %"});
  for (std::size_t k = 0; k < kMoveKindCount; ++k) {
    const MoveClassStats& s = stats[k];
    if (s.drawn == 0) continue;
    const double pct =
        s.evaluated > 0
            ? 100.0 * static_cast<double>(s.accepted) /
                  static_cast<double>(s.evaluated)
            : 0.0;
    table.row()
        .cell(std::string(to_string(static_cast<MoveKind>(k))))
        .cell(s.drawn)
        .cell(s.null_draws)
        .cell(s.infeasible)
        .cell(s.evaluated)
        .cell(s.accepted)
        .cell(pct, 1);
  }
  return table.to_text();
}

void print_run_report(std::ostream& os, const TaskGraph& tg,
                      const RunResult& result) {
  os << "=== exploration report ===\n"
     << "schedule " << result.anneal.schedule_name << ", "
     << result.anneal.iterations_run << " iterations ("
     << result.anneal.accepted << " accepted, " << result.anneal.rejected
     << " rejected, " << result.anneal.infeasible << " null/cyclic), "
     << format_double(result.wall_seconds * 1000.0, 1) << " ms wall clock\n"
     << "initial: " << describe_metrics(result.initial_metrics) << '\n'
     << "best:    " << describe_metrics(result.best_metrics) << '\n'
     << '\n'
     << describe_solution(tg, result.best_architecture, result.best_solution)
     << '\n'
     << "move statistics:\n"
     << describe_move_stats(result.move_stats) << '\n'
     << "schedule (bus-serialized timeline):\n"
     << build_timeline(tg, result.best_architecture, result.best_solution)
            .to_ascii()
     << '\n';
}

void print_parallel_report(std::ostream& os, const TaskGraph& tg,
                           const ParallelRunResult& result) {
  os << "=== parallel exploration report ===\n"
     << result.replicas.size() << " replica(s), " << result.exchange_rounds
     << " exchange round(s), " << result.adoptions << " adoption(s), "
     << format_double(result.wall_seconds * 1000.0, 1) << " ms wall clock\n";

  Table table({"replica", "schedule", "best makespan", "best cost", "accepted",
               "rejected", "adoptions"});
  for (const ReplicaOutcome& rep : result.replicas) {
    std::string name(to_string(rep.schedule));
    if (rep.replica == result.best_replica) name += " *";
    table.row()
        .cell(rep.replica)
        .cell(std::move(name))
        .cell(format_ms(rep.best_metrics.makespan))
        .cell(rep.best_cost, 3)
        .cell(rep.anneal.accepted)
        .cell(rep.anneal.rejected)
        .cell(rep.adoptions);
  }
  os << table.to_text() << '\n';

  print_run_report(os, tg, result.best);
}

// ----------------------------------------------------------------- sweeps

std::string describe_sweep(const SweepResult& sweep) {
  Table table({"point", "x", "runs", "mean ms", "sd", "best ms", "worst ms",
               "init rcf ms", "dyn rcf ms", "contexts", "hw tasks",
               "hit rate"});
  for (const SweepPointResult& p : sweep.points) {
    const RunAggregate& a = p.aggregate;
    table.row()
        .cell(std::string(p.label))
        .cell(p.x, 0)
        .cell(static_cast<std::int64_t>(a.runs))
        .cell(a.mean_makespan_ms, 2)
        .cell(a.stddev_makespan_ms, 2)
        .cell(a.best_makespan_ms, 2)
        .cell(a.worst_makespan_ms, 2)
        .cell(a.mean_init_reconfig_ms, 2)
        .cell(a.mean_dyn_reconfig_ms, 2)
        .cell(a.mean_contexts, 2)
        .cell(a.mean_hw_tasks, 1)
        .cell(a.deadline_hit_rate, 2);
  }
  std::ostringstream os;
  std::string title = "sweep '" + sweep.name + "'";
  if (sweep.deadline > 0) {
    title += " (deadline " + format_ms(sweep.deadline) + ")";
  }
  table.print(os, title);
  return os.str();
}

std::string plot_sweep(const SweepResult& sweep) {
  Series exec{"mean execution time (ms)", {}, {}, '*'};
  Series init_rcf{"initial reconfiguration (ms)", {}, {}, 'i'};
  Series dyn_rcf{"dynamic reconfiguration (ms)", {}, {}, 'd'};
  Series contexts{"number of contexts", {}, {}, 'o'};
  for (const SweepPointResult& p : sweep.points) {
    if (p.aggregate.runs <= 0) continue;
    exec.x.push_back(p.x);
    exec.y.push_back(p.aggregate.mean_makespan_ms);
    init_rcf.x.push_back(p.x);
    init_rcf.y.push_back(p.aggregate.mean_init_reconfig_ms);
    dyn_rcf.x.push_back(p.x);
    dyn_rcf.y.push_back(p.aggregate.mean_dyn_reconfig_ms);
    contexts.x.push_back(p.x);
    contexts.y.push_back(p.aggregate.mean_contexts);
  }
  if (exec.x.size() < 2) return "";
  const std::string title = "sweep '" + sweep.name + "' — means per point";
  return render_plot({exec, init_rcf, dyn_rcf, contexts},
                     PlotOptions{72, 18, sweep.axis_label, title, true});
}

JsonValue aggregate_to_json(const RunAggregate& a, JsonValue doc) {
  doc.set("runs", static_cast<std::int64_t>(a.runs));
  doc.set("mean_makespan_ms", a.mean_makespan_ms);
  doc.set("stddev_makespan_ms", a.stddev_makespan_ms);
  doc.set("best_makespan_ms", a.best_makespan_ms);
  doc.set("worst_makespan_ms", a.worst_makespan_ms);
  doc.set("mean_init_reconfig_ms", a.mean_init_reconfig_ms);
  doc.set("mean_dyn_reconfig_ms", a.mean_dyn_reconfig_ms);
  doc.set("mean_contexts", a.mean_contexts);
  doc.set("mean_hw_tasks", a.mean_hw_tasks);
  doc.set("deadline_hit_rate", a.deadline_hit_rate);
  return doc;
}

JsonValue sweep_point_to_json(const std::string& label, double x,
                              const RunAggregate& a) {
  JsonValue point = JsonValue::object();
  point.set("label", label);
  point.set("x", x);
  return aggregate_to_json(a, std::move(point));
}

namespace {

/// The members every rdse.sweep.v1 artifact opens with.
JsonValue sweep_header_to_json(const SweepResult& sweep) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "rdse.sweep.v1");
  doc.set("name", sweep.name);
  doc.set("axis_label", sweep.axis_label);
  doc.set("deadline_ms", to_ms(sweep.deadline));
  return doc;
}

double mean_evaluations(const SweepPointResult& point) {
  double evals = 0.0;
  for (const MapperResult& r : point.runs) {
    evals += static_cast<double>(r.evaluations);
  }
  return evals / static_cast<double>(point.runs.size());
}

}  // namespace

JsonValue sweep_to_json(const SweepResult& sweep) {
  JsonValue doc = sweep_header_to_json(sweep);
  JsonValue points = JsonValue::array();
  for (const SweepPointResult& p : sweep.points) {
    points.push_back(sweep_point_to_json(p.label, p.x, p.aggregate));
  }
  doc.set("points", std::move(points));
  return doc;
}

JsonValue mapper_point_to_json(const SweepResult& sweep,
                               const SweepPointResult& point,
                               const std::string& model) {
  RDSE_REQUIRE(!point.runs.empty(), "mapper_point_to_json: point has no runs");
  JsonValue doc = sweep_header_to_json(sweep);
  doc.set("model", model);
  doc.set("mapper", point.mapper);
  doc.set("deterministic", mapper_is_deterministic(point.mapper));
  doc.set("mean_evaluations", mean_evaluations(point));
  doc.set("counters", point.runs.front().counters);
  JsonValue points = JsonValue::array();
  points.push_back(sweep_point_to_json(point.label, point.x, point.aggregate));
  doc.set("points", std::move(points));
  return doc;
}

std::string describe_mapper_sweep(const SweepResult& sweep) {
  Table table({"mapper", "runs", "mean ms", "sd", "best ms", "worst ms",
               "contexts", "hw tasks", "evals", "hit rate", "wall s"});
  for (const SweepPointResult& p : sweep.points) {
    const RunAggregate& a = p.aggregate;
    std::string name = p.mapper;
    if (mapper_is_deterministic(p.mapper)) name += " *";
    table.row()
        .cell(std::move(name))
        .cell(static_cast<std::int64_t>(a.runs))
        .cell(a.mean_makespan_ms, 2)
        .cell(a.stddev_makespan_ms, 2)
        .cell(a.best_makespan_ms, 2)
        .cell(a.worst_makespan_ms, 2)
        .cell(a.mean_contexts, 2)
        .cell(a.mean_hw_tasks, 1)
        .cell(mean_evaluations(p), 0)
        .cell(a.deadline_hit_rate, 2)
        .cell(a.mean_wall_seconds, 3);
  }
  std::ostringstream os;
  std::string title = "mapper matrix: ";
  if (!sweep.points.empty()) title += sweep.points.front().label;
  if (sweep.deadline > 0) {
    title += " (deadline " + format_ms(sweep.deadline) + ")";
  }
  title += " — * = deterministic";
  table.print(os, title);
  return os.str();
}

std::vector<std::string> validate_sweep_json(const JsonValue& artifact) {
  std::vector<std::string> errors;
  const auto check = [&errors](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
    return ok;
  };

  if (!check(artifact.kind() == JsonValue::Kind::kObject,
             "artifact is not a JSON object")) {
    return errors;
  }
  const JsonValue* schema = artifact.find("schema");
  check(schema != nullptr &&
            schema->kind() == JsonValue::Kind::kString &&
            schema->as_string() == "rdse.sweep.v1",
        "missing or unsupported 'schema' (want \"rdse.sweep.v1\")");

  const auto string_field = [&](const char* key) {
    const JsonValue* v = artifact.find(key);
    check(v != nullptr && v->kind() == JsonValue::Kind::kString,
          std::string("missing string field '") + key + "'");
  };
  const auto number_field = [&](const JsonValue& obj, const char* key,
                                const std::string& where) {
    const JsonValue* v = obj.find(key);
    check(v != nullptr && v->kind() == JsonValue::Kind::kNumber,
          where + ": missing number field '" + key + "'");
  };
  string_field("name");
  string_field("axis_label");
  number_field(artifact, "deadline_ms", "artifact");

  const JsonValue* points = artifact.find("points");
  if (!check(points != nullptr &&
                 points->kind() == JsonValue::Kind::kArray,
             "missing array field 'points'")) {
    return errors;
  }
  static constexpr const char* kPointNumbers[] = {
      "x",
      "runs",
      "mean_makespan_ms",
      "stddev_makespan_ms",
      "best_makespan_ms",
      "worst_makespan_ms",
      "mean_init_reconfig_ms",
      "mean_dyn_reconfig_ms",
      "mean_contexts",
      "mean_hw_tasks",
      "deadline_hit_rate",
  };
  for (std::size_t i = 0; i < points->items().size(); ++i) {
    const JsonValue& point = points->items()[i];
    const std::string where = "points[" + std::to_string(i) + "]";
    if (!check(point.kind() == JsonValue::Kind::kObject,
               where + " is not an object")) {
      continue;
    }
    const JsonValue* label = point.find("label");
    check(label != nullptr && label->kind() == JsonValue::Kind::kString,
          where + ": missing string field 'label'");
    for (const char* key : kPointNumbers) {
      number_field(point, key, where);
    }
    if (const JsonValue* runs = point.find("runs");
        runs != nullptr && runs->kind() == JsonValue::Kind::kNumber) {
      const double r = runs->as_number();
      check(r >= 0.0 && r <= 1e9 && r == std::floor(r),
            where + ": 'runs' must be an integer in [0, 1e9]");
    }
  }
  return errors;
}

std::string render_sweep_artifact(const JsonValue& artifact) {
  // Rebuild a SweepResult skeleton from the aggregate fields (per-run data
  // is not part of the artifact) and reuse the normal renderers.
  SweepResult sweep;
  sweep.name = artifact.at("name").as_string();
  sweep.axis_label = artifact.at("axis_label").as_string();
  sweep.deadline = from_ms(artifact.at("deadline_ms").as_number());
  for (const JsonValue& point : artifact.at("points").items()) {
    SweepPointResult p;
    p.label = point.at("label").as_string();
    p.x = point.at("x").as_number();
    p.aggregate.runs = static_cast<int>(
        std::clamp<std::int64_t>(point.at("runs").as_int(), 0,
                                 1'000'000'000));
    p.aggregate.mean_makespan_ms = point.at("mean_makespan_ms").as_number();
    p.aggregate.stddev_makespan_ms =
        point.at("stddev_makespan_ms").as_number();
    p.aggregate.best_makespan_ms = point.at("best_makespan_ms").as_number();
    p.aggregate.worst_makespan_ms =
        point.at("worst_makespan_ms").as_number();
    p.aggregate.mean_init_reconfig_ms =
        point.at("mean_init_reconfig_ms").as_number();
    p.aggregate.mean_dyn_reconfig_ms =
        point.at("mean_dyn_reconfig_ms").as_number();
    p.aggregate.mean_contexts = point.at("mean_contexts").as_number();
    p.aggregate.mean_hw_tasks = point.at("mean_hw_tasks").as_number();
    p.aggregate.deadline_hit_rate =
        point.at("deadline_hit_rate").as_number();
    sweep.points.push_back(std::move(p));
  }
  std::string out = describe_sweep(sweep);
  const std::string plot = plot_sweep(sweep);
  if (!plot.empty()) {
    out += '\n';
    out += plot;
  }
  return out;
}

}  // namespace rdse
