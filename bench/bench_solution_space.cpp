/// \file bench_solution_space.cpp
/// \brief EXP-C1 — regenerates every solution-space count of §5 exactly:
/// context-change combinations on a 28-node chain, linear extensions of
/// the 28-task precedence structure, and their products.

#include "bench_common.hpp"
#include "graph/series_parallel.hpp"
#include "model/motion_detection.hpp"
#include "util/table.hpp"

using namespace rdse;

static int run_bench(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv, 1, 0);
  bench::print_header("EXP-C1", "§5 solution-space size analysis", scale);

  Table table({"quantity", "paper", "computed", "match"});
  auto check = [&table](const std::string& what, const std::string& paper,
                        U128 value, U128 expected) {
    table.row()
        .cell(what)
        .cell(paper)
        .cell(u128_to_string_grouped(value))
        .cell(std::string(value == expected ? "yes" : "NO"));
  };

  // Context-change combinations on a 28-node chain.
  check("28-chain, 2 context changes", "378",
        context_change_combinations(28, 2), 378);
  check("28-chain, 6 context changes", "376,740",
        context_change_combinations(28, 6), 376'740);

  // Total orders (linear extensions).
  const SpExpr first20 = SpExpr::series(
      SpExpr::chain(7), SpExpr::parallel(SpExpr::chain(7), SpExpr::chain(6)));
  check("total orders of the first 20 nodes", "1,716",
        first20.linear_extensions(), 1'716);

  const SpExpr tail = SpExpr::parallel(SpExpr::chain(2), SpExpr::chain(1));
  check("orders of the (2-chain || 1-node) segment", "3",
        tail.linear_extensions(), 3);

  const SpExpr full = motion_detection_structure();
  check("total orders of all 28 nodes (3*C(21,7))", "348,840",
        full.linear_extensions(), 348'840);

  // Products: orders x context splits.
  const U128 orders = full.linear_extensions();
  check("orders x 2 context changes", "131,861,520",
        checked_mul(orders, context_change_combinations(28, 2)),
        131'861'520);
  check("orders x 4 context changes", "7,142,499,000",
        checked_mul(orders, context_change_combinations(28, 4)),
        7'142'499'000ULL);

  table.print(std::cout, "EXP-C1 paper vs computed (exact arithmetic)");

  // Brute-force cross-check on a small sibling structure.
  const SpExpr small = SpExpr::series(
      SpExpr::chain(2), SpExpr::parallel(SpExpr::chain(3), SpExpr::chain(2)));
  const Digraph g = small.to_digraph();
  std::cout << "\ncross-check: closed-form "
            << u128_to_string(small.linear_extensions())
            << " == brute force "
            << u128_to_string(count_linear_extensions_bruteforce(g))
            << " on a 7-node sibling structure\n";
  return 0;
}

int main(int argc, char** argv) {
  return run_main(argc, argv, run_bench);
}
