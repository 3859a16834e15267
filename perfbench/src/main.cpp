/// \file main.cpp
/// \brief perfbench: the measuring half of the rdse benchmark.
///
///   perfbench explore --workload NAME --seed N --seconds S --trace 0|1
///                     --run-dir DIR --out FILE
///   perfbench serve-client --phase prep|session|probe --seed N --seconds S
///                     --session K --trace 0|1 --socket PATH --run-dir DIR
///                     --out FILE
///
/// run.py builds this binary next to `rdse`, runs each workload in its own
/// process and turns the result files into the benchmark's report. Every
/// failure ends in one "perfbench: error: ..." line and exit code 1.

#include <charconv>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::uint64_t v = 0;
  const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
  if (res.ec != std::errc() || res.ptr != text.data() + text.size()) {
    throw std::runtime_error("option " + flag + ": not a whole number: '" +
                             text + "'");
  }
  return v;
}

perfbench::RunOptions parse(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected '--flag value', got '" + key + "'");
    }
    flags[key] = argv[i + 1];
  }
  const auto need = [&flags](const std::string& key) {
    const auto it = flags.find(key);
    if (it == flags.end()) throw std::runtime_error("missing " + key);
    return it->second;
  };
  perfbench::RunOptions opt;
  opt.workload = flags.count("--workload") ? flags["--workload"] : "";
  opt.seed = parse_u64("--seed", need("--seed"));
  opt.seconds = static_cast<double>(parse_u64("--seconds", need("--seconds")));
  opt.trace = parse_u64("--trace", need("--trace")) != 0;
  opt.run_dir = need("--run-dir");
  opt.out = need("--out");
  opt.socket = flags.count("--socket") ? flags["--socket"] : "";
  opt.phase = flags.count("--phase") ? flags["--phase"] : "";
  if (flags.count("--session")) {
    opt.session = parse_u64("--session", flags["--session"]);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      throw std::runtime_error("usage: perfbench MODE --flag value ...");
    }
    const std::string mode = argv[1];
    const perfbench::RunOptions opt = parse(argc, argv);
    if (mode == "explore") return perfbench::run_explore_workload(opt);
    if (mode == "serve-client") return perfbench::run_serve_client(opt);
    throw std::runtime_error("unknown mode '" + mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << '\n';
    return 1;
  }
}
