#include "baseline/heft.hpp"

#include <algorithm>

#include "baseline/list_scheduler.hpp"
#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

HeftCosts make_heft_costs(const TaskGraph& tg, const Architecture& arch) {
  const auto procs = arch.processor_ids();
  const auto rcs = arch.reconfigurable_ids();
  RDSE_REQUIRE(!procs.empty(), "make_heft_costs: no processor");
  RDSE_REQUIRE(!rcs.empty(), "make_heft_costs: no reconfigurable circuit");
  const auto& proc =
      static_cast<const Processor&>(arch.resource(procs.front()));
  const ReconfigurableCircuit& dev = arch.reconfigurable(rcs.front());

  HeftCosts costs;
  costs.sw_ms.resize(tg.task_count(), 0.0);
  costs.hw_ms.resize(tg.task_count(), -1.0);
  costs.reconfig_ms.resize(tg.task_count(), 0.0);
  costs.hw_impl.resize(tg.task_count(), 0);
  for (TaskId t = 0; t < tg.task_count(); ++t) {
    const Task& task = tg.task(t);
    costs.sw_ms[t] = to_ms(proc.execution_time(task.sw_time));
    if (const auto k = task.hw.best_under_area(dev.n_clbs())) {
      const HwImplementation& impl = task.hw.at(*k);
      costs.hw_ms[t] = to_ms(impl.time);
      costs.reconfig_ms[t] = to_ms(dev.reconfiguration_time(impl.clbs));
      costs.hw_impl[t] = static_cast<std::uint32_t>(*k);
    }
  }
  costs.comm_ms.resize(tg.comm_count(), 0.0);
  for (EdgeId e = 0; e < tg.comm_count(); ++e) {
    costs.comm_ms[e] = to_ms(arch.bus().transfer_time(tg.comm(e).bytes));
  }
  return costs;
}

std::vector<double> heft_upward_ranks(const TaskGraph& tg,
                                      const HeftCosts& costs) {
  const Digraph& g = tg.digraph();
  const auto order = topological_order(g);
  RDSE_REQUIRE(order.has_value(), "heft_upward_ranks: cyclic task graph");
  std::vector<double> rank(tg.task_count(), 0.0);
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const TaskId v = *it;
    const double w = costs.hw_available(v)
                         ? 0.5 * (costs.sw_ms[v] + costs.rc_cost(v))
                         : costs.sw_ms[v];
    double succ_max = 0.0;
    for (const HalfEdge& h : g.out_half(v)) {
      succ_max = std::max(succ_max, 0.5 * costs.comm_ms[h.edge] + rank[h.node]);
    }
    rank[v] = w + succ_max;
  }
  return rank;
}

EftDecision eft_select(const TaskGraph& tg, const HeftCosts& costs,
                       std::span<const double> priority,
                       std::span<const std::array<double, 2>> oct) {
  RDSE_REQUIRE(oct.empty() || oct.size() == tg.task_count(),
               "eft_select: OCT size mismatch");
  const Digraph& g = tg.digraph();
  const auto order = priority_topological_order(tg, priority);

  EftDecision out;
  out.hw.assign(tg.task_count(), false);
  out.impl.assign(tg.task_count(), 0);
  std::vector<double> finish(tg.task_count(), 0.0);
  double avail_proc = 0.0;
  double avail_rc = 0.0;
  for (const TaskId v : order) {
    // Data-ready times per candidate resource: a predecessor's payload
    // crosses the bus only when the placements differ.
    double ready_proc = avail_proc;
    double ready_rc = avail_rc;
    for (const HalfEdge& h : g.in_half(v)) {
      const TaskId u = h.node;
      const double c = costs.comm_ms[h.edge];
      ready_proc = std::max(ready_proc, finish[u] + (out.hw[u] ? c : 0.0));
      ready_rc = std::max(ready_rc, finish[u] + (out.hw[u] ? 0.0 : c));
    }
    const double eft_proc = ready_proc + costs.sw_ms[v];
    bool pick_rc = false;
    double eft_rc = 0.0;
    if (costs.hw_available(v)) {
      eft_rc = ready_rc + costs.rc_cost(v);
      const double score_proc = oct.empty() ? eft_proc : eft_proc + oct[v][0];
      const double score_rc = oct.empty() ? eft_rc : eft_rc + oct[v][1];
      pick_rc = score_rc < score_proc;  // ties go to the processor
    }
    if (pick_rc) {
      out.hw[v] = true;
      out.impl[v] = costs.hw_impl[v];
      finish[v] = eft_rc;
      avail_rc = eft_rc;
      ++out.hw_selected;
    } else {
      finish[v] = eft_proc;
      avail_proc = eft_proc;
    }
    out.estimated_makespan_ms = std::max(out.estimated_makespan_ms,
                                         finish[v]);
  }
  return out;
}

}  // namespace rdse
