#include "baseline/peft.hpp"

#include <algorithm>
#include <limits>

#include "graph/topo.hpp"
#include "util/assert.hpp"

namespace rdse {

PeftTables peft_oct(const TaskGraph& tg, const HeftCosts& costs) {
  const Digraph& g = tg.digraph();
  const auto order = topological_order(g);
  RDSE_REQUIRE(order.has_value(), "peft_oct: cyclic task graph");

  PeftTables tables;
  tables.oct.assign(tg.task_count(), {0.0, 0.0});
  tables.rank.assign(tg.task_count(), 0.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const TaskId v = *it;
    for (int p = 0; p < 2; ++p) {
      double worst = 0.0;
      for (const HalfEdge& h : g.out_half(v)) {
        const TaskId s = h.node;
        const double c = costs.comm_ms[h.edge];
        // p' = processor (0) and RC (1); cross placements pay the bus.
        const double via_proc =
            tables.oct[s][0] + costs.sw_ms[s] + (p == 0 ? 0.0 : c);
        const double via_rc =
            costs.hw_available(s)
                ? tables.oct[s][1] + costs.rc_cost(s) + (p == 1 ? 0.0 : c)
                : kInf;
        worst = std::max(worst, std::min(via_proc, via_rc));
      }
      tables.oct[v][p] = worst;
    }
    tables.rank[v] = 0.5 * (tables.oct[v][0] + tables.oct[v][1]);
  }
  return tables;
}

}  // namespace rdse
