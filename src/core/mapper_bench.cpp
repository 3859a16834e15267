#include "core/mapper_bench.hpp"

#include <sstream>

#include "core/report.hpp"
#include "util/assert.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace rdse {

MapperMatrixResult run_mapper_matrix(const SweepEngine& engine,
                                     const TaskGraph& tg,
                                     const Architecture& arch,
                                     const MapperMatrixSpec& spec) {
  RDSE_REQUIRE(!spec.mappers.empty(), "mapper matrix: no mappers requested");
  RDSE_REQUIRE(spec.runs_per_mapper >= 1,
               "mapper matrix: need >= 1 run per mapper");

  MapperMatrixResult out;
  out.model = spec.model;
  out.label = spec.label;
  out.x = spec.x;
  out.deadline = spec.deadline;
  out.entries.reserve(spec.mappers.size());
  for (const std::string& name : spec.mappers) {
    const std::unique_ptr<Mapper> mapper = make_mapper(name);
    MapperMatrixEntry entry;
    entry.mapper = name;
    entry.deterministic = mapper->deterministic();
    entry.runs = engine.run_mapper_many(*mapper, tg, arch, spec.config,
                                        spec.runs_per_mapper);
    entry.aggregate = aggregate_mapper_results(entry.runs, spec.deadline);
    out.entries.push_back(std::move(entry));
  }
  return out;
}

JsonValue mapper_matrix_entry_to_json(const MapperMatrixResult& matrix,
                                      const MapperMatrixEntry& entry) {
  RDSE_REQUIRE(!entry.runs.empty(),
               "mapper_matrix_entry_to_json: entry has no runs");
  JsonValue doc = JsonValue::object();
  doc.set("schema", "rdse.sweep.v1");
  doc.set("name", "mapper-bench");
  doc.set("axis_label", "FPGA size (CLBs)");
  doc.set("deadline_ms", to_ms(matrix.deadline));
  doc.set("model", matrix.model);
  doc.set("mapper", entry.mapper);
  doc.set("deterministic", entry.deterministic);
  double evals = 0.0;
  for (const MapperResult& r : entry.runs) {
    evals += static_cast<double>(r.evaluations);
  }
  doc.set("mean_evaluations", evals / static_cast<double>(entry.runs.size()));
  doc.set("counters", entry.runs.front().counters);
  JsonValue points = JsonValue::array();
  points.push_back(
      sweep_point_to_json(matrix.label, matrix.x, entry.aggregate));
  doc.set("points", std::move(points));
  return doc;
}

std::string mapper_artifact_path(const std::string& prefix,
                                 const std::string& mapper) {
  return prefix + "-" + mapper + ".json";
}

std::string describe_mapper_matrix(const MapperMatrixResult& matrix) {
  Table table({"mapper", "runs", "mean ms", "sd", "best ms", "worst ms",
               "contexts", "hw tasks", "evals", "hit rate", "wall s"});
  for (const MapperMatrixEntry& entry : matrix.entries) {
    const RunAggregate& a = entry.aggregate;
    double evals = 0.0;
    for (const MapperResult& r : entry.runs) {
      evals += static_cast<double>(r.evaluations);
    }
    std::string name = entry.mapper;
    if (entry.deterministic) name += " *";
    table.row()
        .cell(std::move(name))
        .cell(static_cast<std::int64_t>(a.runs))
        .cell(a.mean_makespan_ms, 2)
        .cell(a.stddev_makespan_ms, 2)
        .cell(a.best_makespan_ms, 2)
        .cell(a.worst_makespan_ms, 2)
        .cell(a.mean_contexts, 2)
        .cell(a.mean_hw_tasks, 1)
        .cell(evals / static_cast<double>(a.runs), 0)
        .cell(a.deadline_hit_rate, 2)
        .cell(a.mean_wall_seconds, 3);
  }
  std::ostringstream os;
  std::string title = "mapper matrix: " + matrix.label;
  if (matrix.deadline > 0) {
    title += " (deadline " + format_ms(matrix.deadline) + ")";
  }
  title += " — * = deterministic";
  table.print(os, title);
  return os.str();
}

}  // namespace rdse
