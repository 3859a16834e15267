#include "model/generators.hpp"

#include "util/assert.hpp"

namespace rdse {

Application random_application(const AppGenParams& params, Rng& rng) {
  RDSE_REQUIRE(params.sw_ms_lo > 0 && params.sw_ms_hi >= params.sw_ms_lo,
               "random_application: bad sw time range");
  Application app;
  app.name = "synthetic";
  Digraph topo = random_layered_dag(params.dag, rng);

  for (NodeId v = 0; v < topo.node_count(); ++v) {
    Task t;
    t.name = "task" + std::to_string(v);
    t.functionality = "F" + std::to_string(v);
    t.sw_time = from_ms(rng.uniform_real(params.sw_ms_lo, params.sw_ms_hi));
    if (rng.bernoulli(params.hw_capable_fraction)) {
      const auto base_clbs = static_cast<std::int32_t>(
          rng.uniform_int(params.base_clbs_lo, params.base_clbs_hi));
      const double speedup =
          rng.uniform_real(params.base_speedup_lo, params.base_speedup_hi);
      const auto count = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(params.impl_count_lo),
          static_cast<std::int64_t>(params.impl_count_hi)));
      t.hw = make_pareto_impls(t.sw_time, base_clbs, speedup, count);
    }
    app.graph.add_task(std::move(t));
  }
  // One transfer volume per edge, drawn in edge-id order after the tasks;
  // the layered DAG is adopted as the precedence graph, not re-added. Its
  // checks (ranges, duplicates, one topological sort for acyclicity) and
  // add_task's cover everything TaskGraph::validate would re-check: the
  // names are unique by construction.
  std::vector<std::int64_t> bytes(topo.edge_capacity());
  for (std::int64_t& b : bytes) {
    b = rng.uniform_int(params.bytes_lo, params.bytes_hi);
  }
  app.graph.adopt_comms(std::move(topo), bytes);
  app.deadline = static_cast<TimeNs>(
      static_cast<double>(app.graph.total_sw_time()) * params.deadline_slack);
  return app;
}

}  // namespace rdse
