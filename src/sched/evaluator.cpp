#include "sched/evaluator.hpp"

#include <algorithm>

#include "graph/topo.hpp"

namespace rdse {

void fill_static_metrics(const TaskGraph& tg, const Architecture& arch,
                         const Solution& sol, const SearchGraph& sg,
                         Metrics& m) {
  m.init_reconfig = sg.init_reconfig;
  m.dyn_reconfig = sg.dyn_reconfig;
  m.comm_cross = sg.comm_cross;
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    const Placement& p = sol.placement(t);
    if (arch.resource(p.resource).kind() == ResourceKind::kProcessor) {
      ++m.sw_tasks;
      m.sw_busy += sg.node_weight[t];
    } else {
      ++m.hw_tasks;
      m.hw_busy += sg.node_weight[t];
    }
  }
  // Context accounting is gathered by the builder (identically on the full
  // and incremental paths).
  m.n_contexts = sg.n_contexts;
  m.clbs_loaded = sg.clbs_loaded;
  m.max_context_clbs = sg.max_context_clbs;
}

std::optional<Metrics> Evaluator::evaluate(const Solution& sol) const {
  auto detail = evaluate_detailed(sol);
  if (!detail) return std::nullopt;
  return detail->metrics;
}

std::optional<EvalDetail> Evaluator::evaluate_detailed(
    const Solution& sol) const {
  EvalDetail d;
  d.search_graph = build_search_graph(*tg_, *arch_, sol);
  const auto order = topological_order(d.search_graph.graph);
  if (!order.has_value()) {
    return std::nullopt;
  }
  const WeightedDag dag{&d.search_graph.graph, d.search_graph.node_weight,
                        d.search_graph.graph.edge_weights(),
                        d.search_graph.release};
  d.lp = longest_path(dag, *order);
  d.metrics.makespan = d.lp.makespan;
  fill_static_metrics(*tg_, *arch_, sol, d.search_graph, d.metrics);
  return d;
}

}  // namespace rdse
