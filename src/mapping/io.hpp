#pragma once
/// \file io.hpp (mapping)
/// \brief Textual serialization of solutions.
///
/// A mapping found by a long exploration is a design artifact worth keeping;
/// this module round-trips a Solution through a small line-oriented text
/// format so that results can be stored in version control, diffed and
/// reloaded for timeline/report generation without re-running the search.
///
/// Format (one record per line, '#' starts a comment):
///   rdse-solution 1            header with version
///   tasks <N>
///   proc <resource> <task...>                processor total order
///   context <rc> <index> <task:impl ...>     one context, in RC order
///   asic <resource> <task:impl ...>
///
/// Tasks are identified by name (stable across reorderings of ids).

#include <string>

#include "arch/architecture.hpp"
#include "mapping/solution.hpp"
#include "model/task_graph.hpp"

namespace rdse {

/// Serialize; throws if the solution does not cover the task graph.
[[nodiscard]] std::string solution_to_text(const TaskGraph& tg,
                                           const Solution& sol);

/// Parse a solution saved by solution_to_text onto `arch`. Throws
/// rdse::Error with a line diagnostic on malformed input, unknown task
/// names, a resource id that is not a live resource of the record's kind,
/// an implementation index that is not a whole in-range integer, duplicate
/// assignments or incomplete coverage.
[[nodiscard]] Solution solution_from_text(const TaskGraph& tg,
                                          const Architecture& arch,
                                          const std::string& text);

}  // namespace rdse
