/// \file bench_components.cpp
/// \brief EXP-M1 — google-benchmark microbenchmarks of the engine's moving
/// parts: search-graph realization, full longest-path evaluation, move
/// generation and the GA decoder. Establishes that full re-evaluation at
/// paper scale costs microseconds; what the incremental path (DeltaRelaxer,
/// the paper's Woodbury-style update, §4.4) saves for localized updates is
/// measured by bench_incremental_moves.

#include <benchmark/benchmark.h>

#include "baseline/genetic.hpp"
#include "core/moves.hpp"
#include "model/motion_detection.hpp"
#include "sched/evaluator.hpp"

using namespace rdse;

namespace {

struct Setup {
  Application app = make_motion_detection_app();
  Architecture arch = make_cpu_fpga_architecture(
      2000, kMotionDetectionTrPerClb, kMotionDetectionBusRate);
  Solution solution;

  Setup() : solution(0) {
    Rng rng(7);
    solution = Solution::random_partition(app.graph, arch, 0, 1, rng);
  }
};

Setup& setup() {
  static Setup s;
  return s;
}

void BM_SearchGraphBuild(benchmark::State& state) {
  auto& s = setup();
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_search_graph(s.app.graph, s.arch,
                                                s.solution));
  }
}
BENCHMARK(BM_SearchGraphBuild);

void BM_FullEvaluation(benchmark::State& state) {
  auto& s = setup();
  const Evaluator ev(s.app.graph, s.arch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.evaluate(s.solution));
  }
}
BENCHMARK(BM_FullEvaluation);

void BM_LongestPathFull(benchmark::State& state) {
  auto& s = setup();
  const SearchGraph sg = build_search_graph(s.app.graph, s.arch, s.solution);
  const WeightedDag dag{&sg.graph, sg.node_weight, sg.graph.edge_weights(),
                        sg.release};
  for (auto _ : state) {
    benchmark::DoNotOptimize(longest_path(dag));
  }
}
BENCHMARK(BM_LongestPathFull);

void BM_MoveGenerateAndEvaluate(benchmark::State& state) {
  auto& s = setup();
  const Evaluator ev(s.app.graph, s.arch);
  Rng rng(13);
  MoveConfig config;
  for (auto _ : state) {
    Architecture cand_arch = s.arch;
    Solution cand = s.solution;
    const MoveOutcome out =
        generate_move(s.app.graph, cand_arch, cand, config, rng);
    if (out.applied) {
      benchmark::DoNotOptimize(ev.evaluate(cand));
    }
  }
}
BENCHMARK(BM_MoveGenerateAndEvaluate);

void BM_RandomPartitionInit(benchmark::State& state) {
  auto& s = setup();
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Solution::random_partition(s.app.graph, s.arch, 0, 1, rng));
  }
}
BENCHMARK(BM_RandomPartitionInit);

void BM_GaDecode(benchmark::State& state) {
  auto& s = setup();
  GeneticPartitioner ga(s.app.graph, s.arch);
  Rng rng(19);
  const Chromosome c = ga.random_chromosome(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ga.decode(c));
  }
}
BENCHMARK(BM_GaDecode);

void BM_RngDraw(benchmark::State& state) {
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_u64(29));
  }
}
BENCHMARK(BM_RngDraw);

}  // namespace

BENCHMARK_MAIN();
