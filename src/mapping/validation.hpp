#pragma once
/// \file validation.hpp
/// \brief Full structural + semantic validation of a solution against its
/// task graph and architecture. Used by tests, by the explorer on entry and
/// exit, and available to library users for debugging custom mappings.
///
/// validate_solution realizes the full G' to decide acyclicity — the
/// reference verdict. A caller that realizes the solution anyway runs
/// validate_structure instead and lets that one realization decide the
/// cycle: DseProblem's starts go through the incremental evaluator's sparse
/// reset (exact: G' is acyclic iff the sparse graph is and every parked
/// edge runs forward in its processor's order) or, under full_eval, the
/// full Evaluator, and report a cycle as kCyclicSearchGraph.

#include <string>
#include <vector>

#include "arch/architecture.hpp"
#include "mapping/solution.hpp"
#include "model/task_graph.hpp"

namespace rdse {

/// Collect all violations (empty result == valid). Checks:
///  - every task is assigned to a live resource;
///  - hardware placements only on hardware-capable tasks, implementation
///    index in range;
///  - tasks on processors appear exactly once in that processor's order;
///  - context members match placements, contexts are non-empty;
///  - each context fits the device capacity NCLB, its occupancy summed
///    from the task graph, and the Solution's CLB sum for it agrees;
///  - the realized search graph G' is acyclic (orders consistent with
///    precedence).
[[nodiscard]] std::vector<std::string> validate_solution(
    const TaskGraph& tg, const Architecture& arch, const Solution& sol);

/// validate_solution's checks short of realizing G': everything but the
/// acyclicity check. A solution that passes can be realized.
[[nodiscard]] std::vector<std::string> validate_structure(
    const TaskGraph& tg, const Architecture& arch, const Solution& sol);

/// The violation validate_solution reports for a cyclic realized G'.
inline constexpr const char* kCyclicSearchGraph =
    "realized search graph G' contains a cycle";

/// Throw rdse::Error listing `violations` — require_valid's message.
[[noreturn]] void throw_invalid(const std::vector<std::string>& violations);

/// Throw rdse::Error with a combined message if validation fails.
void require_valid(const TaskGraph& tg, const Architecture& arch,
                   const Solution& sol);

}  // namespace rdse
