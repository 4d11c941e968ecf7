// Quickstart: sort an array with the wait-free sorter.
//
//   $ ./quickstart [n] [threads]
//
// Demonstrates the public entry point wfsort::sort, its per-run statistics,
// and switching variants through Options.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/sort.h"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 100000;
  const std::uint32_t threads =
      argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10)) : 4;

  std::vector<std::uint64_t> data(n);
  wfsort::Rng rng(2024);
  for (auto& x : data) x = rng.below(1000000);

  std::printf("sorting %zu random keys with %u wait-free workers...\n", n, threads);

  wfsort::SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(data), wfsort::Options{.threads = threads}, &stats);

  bool sorted = true;
  for (std::size_t i = 1; i < n; ++i) sorted &= data[i - 1] <= data[i];
  std::printf("sorted: %s\n", sorted ? "yes" : "NO");
  std::printf("pivot-tree depth: %u (~%.1f x log2 N)\n", stats.tree_depth,
              static_cast<double>(stats.tree_depth) / (8 * sizeof(std::size_t) -
                                                       static_cast<double>(__builtin_clzll(n))));
  std::printf("max build-tree iterations: %llu (Lemma 2.4 bound: %zu)\n",
              static_cast<unsigned long long>(stats.max_build_iters), n - 1);
  std::printf("workers completed: %u of %u in %.2f ms\n", stats.completed_workers,
              stats.workers, stats.wall_ms);

  // The low-contention variant is a one-field change:
  for (auto& x : data) x = rng.below(1000000);
  wfsort::sort(std::span<std::uint64_t>(data),
               wfsort::Options{.threads = threads,
                               .variant = wfsort::Variant::kLowContention});
  std::printf("low-contention variant resorted the array: %s\n",
              std::is_sorted(data.begin(), data.end()) ? "yes" : "NO");
  return sorted ? 0 : 1;
}
