// E11 — the Attiya-et-al. question "are wait-free algorithms fast?" asked
// natively: wall-clock of the wait-free sorter in the NORMAL (faultless)
// execution against sequential and conventional parallel baselines.
//
// Notes for reading the numbers: the wait-free sorter performs O(N) CAS
// installs plus redundant traversals by design — its wins are progress
// guarantees (E9), not raw single-machine throughput; the paper makes the
// same point by analysing "normal executions" separately.  Thread counts
// beyond the host's cores only add scheduling noise.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>

#include "baselines/bitonic.h"
#include "baselines/lock_parallel_quicksort.h"
#include "baselines/parallel_mergesort.h"
#include "baselines/sequential.h"
#include "core/pool.h"
#include "core/sort.h"
#include "exp/workloads.h"

namespace {

using wfsort::exp::Dist;

std::vector<std::uint64_t> input(std::size_t n) {
  return wfsort::exp::make_u64_keys(n, Dist::kUniform, 424242);
}

void BM_StdSort(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto v = base;
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_SequentialQuicksort(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto v = base;
    wfsort::baselines::quicksort(std::span<std::uint64_t>(v));
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_WaitFreeSortDet(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto v = base;
    wfsort::sort(std::span<std::uint64_t>(v), wfsort::Options{.threads = threads});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_WaitFreeSortDetPartition(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto v = base;
    wfsort::sort(std::span<std::uint64_t>(v),
                 wfsort::Options{.threads = threads,
                                 .phase1 = wfsort::Phase1::kPartition});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_WaitFreeSortLc(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto v = base;
    wfsort::sort(std::span<std::uint64_t>(v),
                 wfsort::Options{.threads = threads,
                                 .variant = wfsort::Variant::kLowContention});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

// Cold vs pooled (ISSUE 10): BM_WaitFreeSortCold is BM_WaitFreeSortDet
// registered over the small-N sweep — every iteration pays the full setup
// bill (thread spawn + storage allocation).  BM_WaitFreeSortPooled drives
// the same engine through the process-wide SortPool, so consecutive
// iterations are exactly the back-to-back submit pattern the pool exists
// for: recycled arenas, parked workers, caller-only fast path below
// kCallerOnlyCutoff.  Outputs are bit-identical; only setup is amortized.
void BM_WaitFreeSortCold(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto v = base;
    wfsort::sort(std::span<std::uint64_t>(v), wfsort::Options{.threads = threads});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_WaitFreeSortPooled(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto v = base;
    wfsort::default_pool().sort(std::span<std::uint64_t>(v),
                                wfsort::Options{.threads = threads});
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_LockParallelQuicksort(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto v = base;
    wfsort::baselines::lock_parallel_quicksort(std::span<std::uint64_t>(v), threads);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_ParallelMergesort(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto v = base;
    wfsort::baselines::parallel_mergesort(std::span<std::uint64_t>(v), threads);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

void BM_BitonicThreaded(benchmark::State& state) {
  const auto base = input(static_cast<std::size_t>(state.range(0)));
  const auto threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto v = base;
    wfsort::baselines::bitonic_threaded_sort(std::span<std::uint64_t>(v), threads);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}

}  // namespace

// Every row that takes a thread count (range(1)) is timed in wall-clock
// time (UseRealTime): the default divides items_per_second by the MAIN
// thread's CPU time, which overstates a threaded sort's throughput by
// however much of the work the other threads did.
BENCHMARK(BM_StdSort)
    ->Arg(1 << 14)
    ->Arg(1 << 16)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SequentialQuicksort)->Arg(1 << 14)->Arg(1 << 16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WaitFreeSortDet)
    ->Args({1 << 14, 1})
    ->Args({1 << 14, 4})
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2)
    ->UseRealTime();
BENCHMARK(BM_WaitFreeSortDetPartition)
    ->Args({1 << 14, 1})
    ->Args({1 << 14, 4})
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2)
    ->UseRealTime();
BENCHMARK(BM_WaitFreeSortLc)
    ->Args({1 << 14, 4})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2)
    ->UseRealTime();
// The small-N sweep 2^10..2^16 (where setup IS the latency), plus a 2^20
// parity row (pooled must be within noise of cold at large N).  Microsecond
// units: the pooled small-N rows are far below a millisecond.
BENCHMARK(BM_WaitFreeSortCold)
    ->Args({1 << 10, 4})
    ->Args({1 << 12, 4})
    ->Args({1 << 14, 4})
    ->Args({1 << 16, 4})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMicrosecond)
    ->MinTime(0.2)
    ->UseRealTime();
BENCHMARK(BM_WaitFreeSortPooled)
    ->Args({1 << 10, 4})
    ->Args({1 << 12, 4})
    ->Args({1 << 14, 4})
    ->Args({1 << 16, 4})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMicrosecond)
    ->MinTime(0.2)
    ->UseRealTime();
BENCHMARK(BM_LockParallelQuicksort)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2)
    ->UseRealTime();
BENCHMARK(BM_ParallelMergesort)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2)
    ->UseRealTime();
BENCHMARK(BM_BitonicThreaded)
    ->Args({1 << 16, 1})
    ->Args({1 << 16, 4})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2)
    ->UseRealTime();

// Custom main instead of BENCHMARK_MAIN(): stamp this binary's own build
// type into the report context.  The distro's libbenchmark ships a fixed
// "library_build_type" that describes how the LIBRARY was compiled, not this
// suite — the bench scripts and CI read wfsort_build_type to refuse
// committing numbers from a debug build.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("wfsort_build_type", "release");
#else
  benchmark::AddCustomContext("wfsort_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
