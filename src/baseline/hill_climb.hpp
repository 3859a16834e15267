#pragma once
/// \file hill_climb.hpp
/// \brief Greedy local search baseline: the full §4.2 move set driven at
/// temperature zero (only improving moves accepted) — isolates the value of
/// the annealing schedule.

#include "baseline/mapper.hpp"

namespace rdse {

/// Run greedy local search with the standard move set for `iterations`
/// moves. Counters carry the acceptance split and the initial (random
/// partition) makespan the climb started from. `cancel` is polled once per
/// move (null = never cancelled).
[[nodiscard]] MapperResult run_hill_climb(const TaskGraph& tg,
                                          const Architecture& arch,
                                          std::int64_t iterations,
                                          std::uint64_t seed,
                                          const CancelToken* cancel = nullptr);

}  // namespace rdse
