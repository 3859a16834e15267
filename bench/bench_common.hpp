#pragma once
/// \file bench_common.hpp
/// \brief Shared scaffolding for the experiment harnesses: scale knobs
/// (command line) and uniform headers. Each `main` forwards to `run_main`
/// (util/cli.hpp), which turns a bad flag into a one-line error.
///
/// Knobs:
///   --runs    repetitions per sweep point (paper: 100)
///   --iters   cooling iterations per exploration
///   --warmup  infinite-temperature warm-up iterations
///   --full    paper-scale settings (runs=100)
///   --seed    base seed

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>

#include "util/cli.hpp"

namespace rdse::bench {

struct Scale {
  int runs = 20;
  std::int64_t iters = 15'000;
  std::int64_t warmup = 1'200;
  std::uint64_t seed = 1;
  bool full = false;
};

inline Scale parse_scale(int argc, char** argv, int default_runs = 20,
                         std::int64_t default_iters = 15'000) {
  static constexpr std::string_view kBoolFlags[] = {"full"};
  const Options opts = Options::parse(argc, argv, kBoolFlags);
  Scale s;
  s.full = opts.get_flag("full");
  s.runs = static_cast<int>(opts.get_int_in(
      "runs", s.full ? 100 : default_runs, 1, std::numeric_limits<int>::max()));
  s.iters = opts.get_int_in("iters", default_iters, 0,
                            std::numeric_limits<std::int64_t>::max());
  s.warmup = opts.get_int_in("warmup", 1'200, 0,
                             std::numeric_limits<std::int64_t>::max());
  s.seed = static_cast<std::uint64_t>(
      opts.get_int_in("seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  return s;
}

inline void print_header(const std::string& experiment_id,
                         const std::string& paper_artifact,
                         const Scale& scale) {
  std::cout << "\n############################################################"
            << "\n# " << experiment_id << " — " << paper_artifact
            << "\n# runs=" << scale.runs << " iters=" << scale.iters
            << " warmup=" << scale.warmup << " seed=" << scale.seed
            << (scale.full ? " (paper scale)" : "")
            << "\n############################################################\n";
}

}  // namespace rdse::bench
