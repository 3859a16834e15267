#pragma once
/// \file clustering.hpp
/// \brief Deterministic temporal partitioning by level-ordered greedy
/// packing — the clustering stage of [6].
///
/// Hardware tasks are visited in ASAP-level order (ties by id) and packed
/// into the current context until the device capacity NCLB would be
/// exceeded, which opens the next context. Because the visiting order is a
/// linearization of the precedence relation, a task never lands in an
/// earlier context than any of its predecessors, so the resulting GTLP
/// order is always realizable (acyclic G').

#include <span>
#include <vector>

#include "arch/architecture.hpp"
#include "arch/resource.hpp"
#include "mapping/solution.hpp"
#include "model/task_graph.hpp"

namespace rdse {

/// Pack the selected tasks (hw_mask[t] == true) into an ordered context
/// list. `impl_choice[t]` selects the implementation whose area is charged.
/// Throws if a selected task has no implementation or does not fit an empty
/// device.
[[nodiscard]] std::vector<std::vector<TaskId>> cluster_into_contexts(
    const TaskGraph& tg, const Resource& dev,
    const std::vector<bool>& hw_mask,
    const std::vector<std::uint32_t>& impl_choice);

/// Deterministic back end shared by every partition-style mapper (GA,
/// clustering, list scheduler, HEFT, PEFT): cluster the selected hardware
/// tasks into contexts on the first RC of `arch`, then insert every
/// software task on the first processor in priority list order. The
/// software order must respect the context sequence as well as the task
/// precedence, so the ordering graph carries Ehw-style edges between
/// consecutive contexts. `priority.size()` must equal the task count; with
/// upward_ranks() this is the standard list-scheduling order.
[[nodiscard]] Solution decode_partition(
    const TaskGraph& tg, const Architecture& arch,
    const std::vector<bool>& hw_mask,
    const std::vector<std::uint32_t>& impl_choice,
    std::span<const double> priority);

}  // namespace rdse
