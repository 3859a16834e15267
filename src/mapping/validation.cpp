#include "mapping/validation.hpp"

#include <algorithm>
#include <sstream>

#include "graph/topo.hpp"
#include "mapping/search_graph.hpp"

namespace rdse {

namespace {

/// Placement checks: every task assigned consistently with its resource's
/// order, contexts or ASIC list. Only a solution that passes them can be
/// realized as G'.
void check_placements(const TaskGraph& tg, const Architecture& arch,
                      const Solution& sol, std::vector<std::string>& bad) {
  auto complain = [&bad](const std::string& msg) { bad.push_back(msg); };

  if (sol.task_count() != tg.task_count()) {
    complain("solution covers " + std::to_string(sol.task_count()) +
             " tasks, task graph has " + std::to_string(tg.task_count()));
    return;
  }

  // Tasks placed on each processor, against which each order's length is
  // checked below.
  std::vector<std::size_t> placed_on(arch.slot_count(), 0);

  for (TaskId t = 0; t < tg.task_count(); ++t) {
    const Placement& p = sol.placement(t);
    const std::string& name = tg.task(t).name;
    if (!p.assigned()) {
      complain("task '" + name + "' is unassigned");
      continue;
    }
    if (!arch.alive(p.resource)) {
      complain("task '" + name + "' is on a dead resource");
      continue;
    }
    const Resource& res = arch.resource(p.resource);
    switch (res.kind()) {
      case ResourceKind::kProcessor: {
        if (p.context != -1) {
          complain("task '" + name + "' on a processor has a context index");
        }
        ++placed_on[p.resource];
        if (!sol.in_processor_order(t)) {
          complain("task '" + name +
                   "' does not appear exactly once in its processor order");
        }
        break;
      }
      case ResourceKind::kReconfigurable: {
        if (!tg.task(t).hw_capable()) {
          complain("software-only task '" + name + "' placed on an RC");
          break;
        }
        if (p.impl >= tg.task(t).hw.size()) {
          complain("task '" + name + "' has implementation index " +
                   std::to_string(p.impl) + " out of range");
          break;
        }
        if (p.context < 0 ||
            static_cast<std::size_t>(p.context) >=
                sol.context_count(p.resource)) {
          complain("task '" + name + "' has an invalid context index");
          break;
        }
        const auto members =
            sol.context_tasks(p.resource, static_cast<std::size_t>(p.context));
        if (std::count(members.begin(), members.end(), t) != 1) {
          complain("task '" + name +
                   "' does not appear exactly once in its context");
        }
        break;
      }
      case ResourceKind::kAsic: {
        if (!tg.task(t).hw_capable()) {
          complain("software-only task '" + name + "' placed on an ASIC");
          break;
        }
        if (p.impl >= tg.task(t).hw.size()) {
          complain("task '" + name + "' has implementation index " +
                   std::to_string(p.impl) + " out of range");
          break;
        }
        const auto members = sol.asic_tasks(p.resource);
        if (std::count(members.begin(), members.end(), t) != 1) {
          complain("task '" + name +
                   "' does not appear exactly once on its ASIC");
        }
        break;
      }
    }
  }
  // Every placed task sits at the order slot its position mirror names
  // (distinct slots), so an order exactly as long as the number of tasks
  // placed on its processor holds each of them once and nothing else.
  for (ResourceId proc : arch.processor_ids()) {
    const std::size_t listed = sol.processor_order(proc).size();
    if (listed != placed_on[proc]) {
      complain("processor '" + arch.resource(proc).name() + "' order lists " +
               std::to_string(listed) + " tasks, " +
               std::to_string(placed_on[proc]) + " are placed on it");
    }
  }
}

/// Context checks: no empty context, none above the device capacity NCLB.
void check_capacity(const TaskGraph& tg, const Architecture& arch,
                    const Solution& sol, std::vector<std::string>& bad) {
  auto complain = [&bad](const std::string& msg) { bad.push_back(msg); };
  for (ResourceId rc : arch.reconfigurable_ids()) {
    const auto& dev = arch.reconfigurable(rc);
    for (std::size_t c = 0; c < sol.context_count(rc); ++c) {
      if (sol.context_tasks(rc, c).empty()) {
        complain("context " + std::to_string(c) + " on '" + dev.name() +
                 "' is empty");
        continue;
      }
      // Summed from the task graph rather than read from the Solution's
      // CLB sums, which this check would otherwise take on trust.
      std::int32_t used = 0;
      for (TaskId t : sol.context_tasks(rc, c)) {
        used += tg.task(t).hw.at(sol.placement(t).impl).clbs;
      }
      if (used != sol.context_clbs(rc, c)) {
        complain("context " + std::to_string(c) + " on '" + dev.name() +
                 "' records " + std::to_string(sol.context_clbs(rc, c)) +
                 " CLBs, its implementations occupy " + std::to_string(used));
      }
      if (used > dev.n_clbs()) {
        complain("context " + std::to_string(c) + " on '" + dev.name() +
                 "' uses " + std::to_string(used) + " CLBs > capacity " +
                 std::to_string(dev.n_clbs()));
      }
    }
  }
}

}  // namespace

std::vector<std::string> validate_structure(const TaskGraph& tg,
                                            const Architecture& arch,
                                            const Solution& sol) {
  std::vector<std::string> bad;
  check_placements(tg, arch, sol, bad);
  if (bad.empty()) check_capacity(tg, arch, sol, bad);
  return bad;
}

std::vector<std::string> validate_solution(const TaskGraph& tg,
                                           const Architecture& arch,
                                           const Solution& sol) {
  std::vector<std::string> bad;
  check_placements(tg, arch, sol, bad);
  if (!bad.empty()) {
    return bad;  // structure broken; capacity/cycle checks would be noise
  }
  check_capacity(tg, arch, sol, bad);
  // Acyclicity of the realized search graph.
  const SearchGraph sg = build_search_graph(tg, arch, sol);
  if (!is_acyclic(sg.graph)) {
    bad.emplace_back(kCyclicSearchGraph);
  }
  return bad;
}

void throw_invalid(const std::vector<std::string>& violations) {
  std::ostringstream os;
  os << "invalid solution (" << violations.size() << " violation(s)):";
  for (const auto& v : violations) {
    os << "\n  - " << v;
  }
  throw Error(os.str());
}

void require_valid(const TaskGraph& tg, const Architecture& arch,
                   const Solution& sol) {
  const auto bad = validate_solution(tg, arch, sol);
  if (!bad.empty()) throw_invalid(bad);
}

}  // namespace rdse
