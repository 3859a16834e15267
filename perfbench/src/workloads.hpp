#pragma once
/// \file workloads.hpp
/// \brief Entry points of the perfbench binary's workloads.

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

/// Options shared by every perfbench mode (parsed in main.cpp).
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;  ///< scratch directory owned by this run
  std::string out;      ///< result document path
  std::string socket;   ///< serve-client: daemon socket
  std::string phase;    ///< serve-client: prep | session | probe
  std::uint64_t session = 0;  ///< serve-client: index of the session stream
};

/// paper-motion, large-graph and replica-exchange (one process each).
int run_explore_workload(const RunOptions& opt);

/// serve-mix traffic against a running `rdse serve` daemon.
int run_serve_client(const RunOptions& opt);

/// The probe stream of an explore workload: every deterministic mapper on
/// the workload's model at a few device sizes, each sent cold then repeated.
void explore_serve_probe(const std::string& model, const std::string& run_dir,
                         Tracer& tracer, Report& report);

}  // namespace perfbench
