// Tests for the native wait-free sorter: correctness across workloads,
// thread counts and variants; statistics invariants (Lemma 2.4); behaviour
// under injected crashes and page-fault sleeps (wait-freedom, E9's basis).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pool.h"
#include "core/session.h"
#include "core/sort.h"
#include "telemetry/schema.h"
#include "runtime/adversaries.h"
#include "runtime/fault_script.h"

namespace {

using wfsort::Options;
using wfsort::Phase1;
using wfsort::PrunePlaced;
using wfsort::Rng;
using wfsort::SortStats;
using wfsort::Variant;

// ------------------------------------------------------------ workloads

enum class Workload { kRandom, kSorted, kReversed, kAllEqual, kFewDistinct, kOrganPipe, kRuns };

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kRandom: return "random";
    case Workload::kSorted: return "sorted";
    case Workload::kReversed: return "reversed";
    case Workload::kAllEqual: return "all_equal";
    case Workload::kFewDistinct: return "few_distinct";
    case Workload::kOrganPipe: return "organ_pipe";
    case Workload::kRuns: return "runs";
  }
  return "?";
}

std::vector<std::uint64_t> make_workload(Workload w, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> v(n);
  switch (w) {
    case Workload::kRandom:
      for (auto& x : v) x = rng.next();
      break;
    case Workload::kSorted:
      for (std::size_t i = 0; i < n; ++i) v[i] = i * 3;
      break;
    case Workload::kReversed:
      for (std::size_t i = 0; i < n; ++i) v[i] = (n - i) * 3;
      break;
    case Workload::kAllEqual:
      for (auto& x : v) x = 42;
      break;
    case Workload::kFewDistinct:
      for (auto& x : v) x = rng.below(8);
      break;
    case Workload::kOrganPipe:
      for (std::size_t i = 0; i < n; ++i) v[i] = i < n / 2 ? i : n - i;
      break;
    case Workload::kRuns:
      for (std::size_t i = 0; i < n; ++i) v[i] = (i % 64) + 1000 * (i / 64 % 7);
      break;
  }
  return v;
}

void expect_sorted_permutation(const std::vector<std::uint64_t>& original,
                               const std::vector<std::uint64_t>& result,
                               const std::string& label) {
  ASSERT_EQ(original.size(), result.size()) << label;
  EXPECT_TRUE(std::is_sorted(result.begin(), result.end())) << label;
  std::vector<std::uint64_t> expected = original;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(expected, result) << label;
}

// ------------------------------------------------------------ basics

TEST(SortNative, EmptyAndTiny) {
  for (std::size_t n : {0u, 1u, 2u, 3u}) {
    auto v = make_workload(Workload::kRandom, n, 9 + n);
    auto orig = v;
    wfsort::sort(std::span<std::uint64_t>(v), Options{.threads = 2});
    expect_sorted_permutation(orig, v, "n=" + std::to_string(n));
  }
}

TEST(SortNative, SingleThreadRandom) {
  auto v = make_workload(Workload::kRandom, 1000, 1);
  auto orig = v;
  wfsort::sort(std::span<std::uint64_t>(v), Options{.threads = 1});
  expect_sorted_permutation(orig, v, "single-thread");
}

TEST(SortNative, CustomComparatorDescending) {
  auto v = make_workload(Workload::kRandom, 500, 2);
  wfsort::sort(std::span<std::uint64_t>(v), Options{.threads = 2}, nullptr,
               std::greater<std::uint64_t>{});
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<std::uint64_t>{}));
}

TEST(SortNative, TrivialStructKeyByField) {
  struct Pair {
    std::uint32_t key;
    std::uint32_t payload;
  };
  Rng rng(77);
  std::vector<Pair> v(300);
  for (std::uint32_t i = 0; i < v.size(); ++i) {
    v[i] = {static_cast<std::uint32_t>(rng.below(50)), i};
  }
  auto by_key = [](const Pair& a, const Pair& b) { return a.key < b.key; };
  wfsort::sort(std::span<Pair>(v), Options{.threads = 3}, nullptr, by_key);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), by_key));
  // Every payload still present exactly once (permutation check).
  std::vector<bool> seen(v.size(), false);
  for (const Pair& p : v) {
    ASSERT_LT(p.payload, v.size());
    EXPECT_FALSE(seen[p.payload]);
    seen[p.payload] = true;
  }
}

TEST(SortNative, PhaseTimingsAreRecorded) {
  // At Level::kOff the only clock is the call's wall time.
  auto v = make_workload(Workload::kRandom, 60000, 71);
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v), Options{.threads = 2}, &stats);
  ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_EQ(stats.telemetry, nullptr);

  // Per-phase time comes from the kPhases spans, named for the path's
  // own phases: tree build/sum/place, partition classify/scatter/buckets,
  // LC stages A-E plus the randomized sum/place.
  using wfsort::telemetry::PhaseId;
  struct PathCase {
    const char* name;
    Options opts;
    std::vector<PhaseId> phases;
  };
  const PathCase paths[] = {
      {"tree",
       Options{.threads = 2},
       {PhaseId::kBuild, PhaseId::kSum, PhaseId::kPlace}},
      {"partition",
       Options{.threads = 2, .phase1 = Phase1::kPartition},
       {PhaseId::kPartClassify, PhaseId::kPartScatter, PhaseId::kPartSort}},
      {"lc",
       Options{.threads = 2, .variant = Variant::kLowContention},
       {PhaseId::kLcPresort, PhaseId::kLcWinner, PhaseId::kLcSortedIdx,
        PhaseId::kLcFatten, PhaseId::kLcInsert, PhaseId::kSum, PhaseId::kPlace}},
  };
  for (const PathCase& path : paths) {
    auto w = make_workload(Workload::kRandom, 20000, 72);
    Options opts = path.opts;
    opts.telemetry = wfsort::telemetry::Level::kPhases;
    SortStats traced;
    wfsort::sort(std::span<std::uint64_t>(w), opts, &traced);
    ASSERT_TRUE(std::is_sorted(w.begin(), w.end())) << path.name;
    EXPECT_GT(traced.wall_ms, 0.0) << path.name;
    ASSERT_NE(traced.telemetry, nullptr) << path.name;
    std::vector<PhaseId> present = traced.telemetry->phases_present();
    present.erase(std::remove(present.begin(), present.end(), PhaseId::kCopyBack),
                  present.end());
    std::vector<PhaseId> expected = path.phases;
    std::sort(present.begin(), present.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(present, expected) << path.name;
  }
}

TEST(SortNative, SortPermutationLeavesDataUntouched) {
  auto v = make_workload(Workload::kRandom, 1500, 44);
  const auto orig = v;
  const auto perm = wfsort::sort_permutation(
      std::span<const std::uint64_t>(v), Options{.threads = 3});
  EXPECT_EQ(v, orig);  // data untouched
  ASSERT_EQ(perm.size(), v.size());
  // perm is a permutation and orders the data.
  std::vector<bool> seen(v.size(), false);
  for (std::size_t r = 0; r < perm.size(); ++r) {
    ASSERT_LT(perm[r], v.size());
    EXPECT_FALSE(seen[perm[r]]);
    seen[perm[r]] = true;
    if (r > 0) {
      EXPECT_LE(v[perm[r - 1]], v[perm[r]]);
    }
  }
}

TEST(SortNative, SortPermutationFillsStatsAndFeedsMonitor) {
  const std::string path = ::testing::TempDir() + "wfsort_perm_monitor.jsonl";
  { std::ofstream trunc(path, std::ios::trunc); }
  const auto v = make_workload(Workload::kRandom, 100000, 45);
  Options opts{.threads = 3};
  opts.telemetry = wfsort::telemetry::Level::kPhases;
  opts.monitor_path = path;
  opts.monitor_interval_ms = 5;
  SortStats stats;
  const auto perm =
      wfsort::sort_permutation(std::span<const std::uint64_t>(v), opts, &stats);
  for (std::size_t r = 1; r < perm.size(); ++r) {
    ASSERT_LE(v[perm[r - 1]], v[perm[r]]);
  }
  EXPECT_EQ(stats.n, v.size());
  EXPECT_EQ(stats.completed_workers, 3u);
  EXPECT_GT(stats.wall_ms, 0.0);
  ASSERT_NE(stats.telemetry, nullptr);
  EXPECT_FALSE(stats.telemetry->phases_present().empty());

  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string error;
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(wfsort::telemetry::validate_monitor_jsonl(text, &error)) << error;
  EXPECT_NE(text.find("\"final\":true"), std::string::npos);
}

TEST(SortNative, SortPermutationTiesBreakByIndex) {
  std::vector<std::uint64_t> v(100, 7);  // all equal
  const auto perm = wfsort::sort_permutation(std::span<const std::uint64_t>(v));
  for (std::uint32_t r = 0; r < perm.size(); ++r) EXPECT_EQ(perm[r], r);
}

TEST(SortNative, SortPermutationEmptyAndSingle) {
  std::vector<std::uint64_t> empty;
  EXPECT_TRUE(wfsort::sort_permutation(std::span<const std::uint64_t>(empty)).empty());
  std::vector<std::uint64_t> one{9};
  auto perm = wfsort::sort_permutation(std::span<const std::uint64_t>(one));
  ASSERT_EQ(perm.size(), 1u);
  EXPECT_EQ(perm[0], 0u);
}

// ------------------------------------------------------------ property sweep

struct SweepParam {
  Workload workload;
  // Explicit zero padding, as in KnobParam below: gtest lists the raw bytes
  // of the parameter in the test name.
  std::uint32_t zero_pad = 0;
  std::size_t n;
  std::uint32_t threads;
  Variant variant;
};

std::string param_label(const SweepParam& p) {
  return std::string(workload_name(p.workload)) + "_n" + std::to_string(p.n) + "_t" +
         std::to_string(p.threads) +
         (p.variant == Variant::kDeterministic ? "_det" : "_lc");
}

std::string sweep_name(const testing::TestParamInfo<SweepParam>& info) {
  return param_label(info.param);
}

class SortSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(SortSweep, SortsToPermutation) {
  const SweepParam p = GetParam();
  auto v = make_workload(p.workload, p.n, 1234 + p.n);
  auto orig = v;
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v),
               Options{.threads = p.threads, .variant = p.variant}, &stats);
  expect_sorted_permutation(orig, v, param_label(p));

  if (p.n >= 2) {
    // Lemma 2.4: no build_tree call loops more than N-1 times.
    EXPECT_LE(stats.max_build_iters, p.n - 1);
    EXPECT_GE(stats.tree_depth, 1u);
    EXPECT_LE(stats.tree_depth, p.n);
    EXPECT_EQ(stats.completed_workers, p.threads);
    EXPECT_EQ(stats.crashed_workers, 0u);
  }
}

std::vector<SweepParam> make_sweep() {
  std::vector<SweepParam> out;
  const Workload workloads[] = {Workload::kRandom,      Workload::kSorted,
                                Workload::kReversed,    Workload::kAllEqual,
                                Workload::kFewDistinct, Workload::kOrganPipe,
                                Workload::kRuns};
  for (Workload w : workloads) {
    for (std::size_t n : {37u, 256u, 1024u}) {
      for (std::uint32_t t : {1u, 4u}) {
        out.push_back(
            {.workload = w, .n = n, .threads = t, .variant = Variant::kDeterministic});
      }
    }
    // The LC variant is slower per element (randomized probing); keep sizes
    // moderate but above its fallback threshold.
    out.push_back(
        {.workload = w, .n = 300, .threads = 4, .variant = Variant::kLowContention});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SortSweep, testing::ValuesIn(make_sweep()),
                         sweep_name);

// ------------------------------------------------------------ engine knobs

// Every (wat_batch, seq_cutoff, phase1) combination must sort identically —
// the knobs trade traversal overhead for batching, never correctness.  The
// grid deliberately includes the degenerate settings (batch 1 = one WAT
// traversal per element, cutoff 0 = pure frame machinery) and a cutoff
// larger than most subtrees, and runs the deterministic rows under both
// phase-1 strategies (pivot tree and blocked partition).
struct KnobParam {
  std::uint32_t wat_batch;
  // gtest lists a parameter it has no printer for by its raw bytes; an
  // explicit zero here keeps uninitialised padding (stack leftovers, pointer
  // fragments that move with ASLR) out of the listed test names.
  std::uint32_t zero_pad = 0;
  std::uint64_t seq_cutoff;
  Variant variant;
  Phase1 phase1 = Phase1::kTree;
};

std::string knob_label(const KnobParam& p) {
  return "b" + std::to_string(p.wat_batch) + "_c" + std::to_string(p.seq_cutoff) +
         (p.variant == Variant::kDeterministic ? "_det" : "_lc") +
         (p.phase1 == Phase1::kPartition ? "_part" : "");
}

class KnobSweep : public testing::TestWithParam<KnobParam> {};

TEST_P(KnobSweep, SortsToPermutation) {
  const KnobParam p = GetParam();
  auto v = make_workload(Workload::kRandom, 1500, 7000 + p.wat_batch + p.seq_cutoff);
  auto orig = v;
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v),
               Options{.threads = 3,
                       .variant = p.variant,
                       .phase1 = p.phase1,
                       .wat_batch = p.wat_batch,
                       .seq_cutoff = p.seq_cutoff},
               &stats);
  expect_sorted_permutation(orig, v, knob_label(p));
  EXPECT_LE(stats.max_build_iters, v.size() - 1);  // Lemma 2.4 at any batch
  EXPECT_EQ(stats.completed_workers, 3u);
}

std::vector<KnobParam> make_knob_sweep() {
  std::vector<KnobParam> out;
  for (std::uint32_t b : {1u, 4u, 16u}) {
    for (std::uint64_t c : {0u, 64u, 128u}) {  // off, small, the re-picked default
      out.push_back({.wat_batch = b, .seq_cutoff = c, .variant = Variant::kDeterministic});
      out.push_back({.wat_batch = b, .seq_cutoff = c, .variant = Variant::kLowContention});
      out.push_back({.wat_batch = b,
                     .seq_cutoff = c,
                     .variant = Variant::kDeterministic,
                     .phase1 = Phase1::kPartition});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, KnobSweep, testing::ValuesIn(make_knob_sweep()),
                         [](const testing::TestParamInfo<KnobParam>& pi) {
                           return knob_label(pi.param);
                         });

// The blocked-partition phase 1 must be observationally identical to the
// pivot-tree phase 1, not just "also sorted": both place element i at the
// rank of (key, i) in the index-tie-broken total order, so the output
// PERMUTATION — visible through sort_permutation on duplicate-heavy input —
// must match rank for rank.
// n = 6000 gives 2 buckets, 2^16 gives 32.
TEST(SortNative, PartitionPhasePermutationMatchesTreeBitExactly) {
  const Workload workloads[] = {Workload::kRandom, Workload::kAllEqual,
                                Workload::kFewDistinct, Workload::kOrganPipe};
  for (std::size_t n : {std::size_t{6000}, std::size_t{1} << 16}) {
    for (Workload w : workloads) {
      const auto v = make_workload(w, n, 321);
      const auto tree_perm = wfsort::sort_permutation(
          std::span<const std::uint64_t>(v),
          Options{.threads = 4, .phase1 = Phase1::kTree});
      const auto part_perm = wfsort::sort_permutation(
          std::span<const std::uint64_t>(v),
          Options{.threads = 4, .phase1 = Phase1::kPartition});
      EXPECT_EQ(tree_perm, part_perm) << workload_name(w) << " n=" << n;
    }
  }
}

// Below kLcMinN the LC variant falls back to the deterministic one, so LC +
// kPartition takes the record-less partition path.  Its permutation comes
// from the rank-to-index array and must still match the tree's.
TEST(SortNative, LowContentionPartitionFallbackMatchesTree) {
  const auto v = make_workload(Workload::kFewDistinct, 40, 11);
  ASSERT_LT(v.size(), wfsort::detail::kLcMinN);
  const Options lc_part{.threads = 4,
                        .variant = Variant::kLowContention,
                        .phase1 = Phase1::kPartition};
  auto copy = v;
  wfsort::detail::Engine<std::uint64_t, std::less<std::uint64_t>> engine(
      std::span<std::uint64_t>(copy), {}, lc_part);
  EXPECT_EQ(engine.effective_variant(), Variant::kDeterministic);
  EXPECT_TRUE(engine.state().nodes.empty());
  const auto tree_perm = wfsort::sort_permutation(
      std::span<const std::uint64_t>(v), Options{.threads = 4, .phase1 = Phase1::kTree});
  const auto part_perm =
      wfsort::sort_permutation(std::span<const std::uint64_t>(v), lc_part);
  EXPECT_EQ(tree_perm, part_perm);
}

// ------------------------------------------------------------ size limit

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerShadow = true;  // reserves terabytes of address space
#else
constexpr bool kSanitizerShadow = false;
#endif

// Cap this process's address space 256 MiB above what it maps now, so an
// allocation sized by n fails at once (std::bad_alloc) instead of being
// granted lazily and filled.  Not under ASan/TSan, whose shadow mappings
// need the address space.
void cap_address_space() {
  if (kSanitizerShadow) return;
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  statm >> pages;
  const auto cap = static_cast<rlim_t>(
      pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)) + (std::uint64_t{256} << 20));
  const rlimit lim{cap, cap};
  setrlimit(RLIMIT_AS, &lim);
}

// n >= 2^31 does not fit the records' 32-bit index fields.  Every entry
// point must stop at the Engine's CHECK before it allocates anything or
// reads the input: the span below claims 2^31 elements over a 16-element
// buffer, so reading past it would fault and allocating for it would fail
// under the address-space cap — either would die with another message.
TEST(SortNativeDeathTest, SizeCheckFiresBeforeAllocating) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  std::vector<std::uint64_t> small(16, 7);
  const std::span<std::uint64_t> huge(small.data(), wfsort::detail::kMaxElements);
  const char* kMessage = "CHECK failed.*data.size\\(\\) < kMaxElements";
  EXPECT_DEATH(
      {
        cap_address_space();
        wfsort::sort(huge, Options{.threads = 2});
      },
      kMessage);
  EXPECT_DEATH(
      {
        cap_address_space();
        (void)wfsort::sort_permutation(std::span<const std::uint64_t>(huge),
                                       Options{.threads = 2, .phase1 = Phase1::kPartition});
      },
      kMessage);
  EXPECT_DEATH(
      {
        cap_address_space();
        wfsort::SortPool pool(2);
        pool.sort(huge, Options{.threads = 2, .variant = Variant::kLowContention});
      },
      kMessage);
}

// ------------------------------------------------------------ variants

TEST(SortNative, LowContentionFallsBackBelowThreshold) {
  std::vector<std::uint64_t> v = make_workload(Workload::kRandom, 32, 5);
  wfsort::detail::Engine<std::uint64_t, std::less<std::uint64_t>> engine(
      std::span<std::uint64_t>(v), {}, Options{.variant = Variant::kLowContention});
  EXPECT_EQ(engine.effective_variant(), Variant::kDeterministic);
}

TEST(SortNative, LowContentionLargerArray) {
  auto v = make_workload(Workload::kRandom, 5000, 21);
  auto orig = v;
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v),
               Options{.threads = 4, .variant = Variant::kLowContention}, &stats);
  expect_sorted_permutation(orig, v, "lc-5000");
  EXPECT_EQ(stats.completed_workers, 4u);
}

TEST(SortNative, LowContentionAdversarialSortedInput) {
  // Sorted input is Lemma 2.4's index-order worst case (depth N); the LC
  // variant's random insertion order must keep the tree shallow.
  auto v = make_workload(Workload::kSorted, 4096, 0);
  auto orig = v;
  SortStats stats;
  wfsort::sort(std::span<std::uint64_t>(v),
               Options{.threads = 2, .variant = Variant::kLowContention}, &stats);
  expect_sorted_permutation(orig, v, "lc-sorted");
  // Random-order insertion: depth O(log N) w.h.p.  4096 -> log2 = 12; allow
  // a generous constant.
  EXPECT_LE(stats.tree_depth, 12u * 6u);
}

TEST(SortNative, LowContentionCopiesKnob) {
  for (std::uint32_t copies : {1u, 3u, 16u}) {
    auto v = make_workload(Workload::kRandom, 2000, 500 + copies);
    auto orig = v;
    wfsort::sort(std::span<std::uint64_t>(v),
                 Options{.threads = 3,
                         .variant = Variant::kLowContention,
                         .lc_copies = copies});
    expect_sorted_permutation(orig, v, "copies=" + std::to_string(copies));
  }
}

TEST(SortNative, TreeDepthIsLogarithmicOnEveryDistribution) {
  // Phase 1 inserts in a seeded pseudo-random order (Section 2.3's
  // random-first pickup), so no input order — sorted, reversed, organ-pipe,
  // all-equal (index tie-breaks make it a sorted sequence) — can build the
  // depth-N chain of Lemma 2.4's worst case.
  constexpr std::size_t kN = std::size_t{1} << 14;
  constexpr std::uint32_t kMaxDepth = 4 * 14;  // 4 * log2 N
  const Workload workloads[] = {Workload::kRandom,      Workload::kSorted,
                                Workload::kReversed,    Workload::kAllEqual,
                                Workload::kFewDistinct, Workload::kOrganPipe,
                                Workload::kRuns};
  for (Workload w : workloads) {
    const auto orig = make_workload(w, kN, 77);
    for (std::uint32_t t : {1u, 4u}) {
      const std::string label =
          std::string(workload_name(w)) + "_t" + std::to_string(t);
      auto v = orig;
      SortStats stats;
      wfsort::sort(std::span<std::uint64_t>(v), Options{.threads = t}, &stats);
      expect_sorted_permutation(orig, v, label);
      EXPECT_LE(stats.tree_depth, kMaxDepth) << label;
      if (t == 1) {
        // One worker inserts the seeded order exactly, so the tree — and its
        // depth — is a function of (input, seed).
        auto again = orig;
        SortStats stats_again;
        wfsort::sort(std::span<std::uint64_t>(again), Options{.threads = 1},
                     &stats_again);
        EXPECT_EQ(stats_again.tree_depth, stats.tree_depth) << label;
        EXPECT_EQ(stats_again.total_build_iters, stats.total_build_iters) << label;
      }
    }
  }
}

// SortStats::tree_depth is derived from the phase-1 tallies — 1 + the
// deepest descent on the tree path, the fat tree's levels + the deepest
// stage-E descent on LC, the root alone (1) on the partition path — and
// must equal a walk of the finished tree on every path, size and input,
// with and without crashes.
using U64Engine = wfsort::detail::Engine<std::uint64_t, std::less<std::uint64_t>>;

const Workload kDepthWorkloads[] = {Workload::kRandom, Workload::kSorted,
                                    Workload::kReversed, Workload::kFewDistinct,
                                    Workload::kAllEqual};

std::vector<Options> depth_paths() {
  return {Options{}, Options{.phase1 = Phase1::kPartition},
          Options{.variant = Variant::kLowContention}};
}

std::string depth_label(const Options& o, std::size_t n, Workload w) {
  const char* path = o.variant == Variant::kLowContention ? "lc"
                     : o.phase1 == Phase1::kPartition     ? "partition"
                                                          : "tree";
  return std::string(path) + "_t" + std::to_string(o.threads) + "_n" +
         std::to_string(n) + "_" + workload_name(w);
}

// The walked depth of the tree one worker (id 0) builds alone: with a single
// worker the tree is a function of (input, Options) only.
std::uint32_t solo_walked_depth(std::vector<std::uint64_t> v, const Options& opts) {
  U64Engine engine(std::span<std::uint64_t>(v), {}, opts);
  EXPECT_TRUE(engine.run_worker(0));
  return engine.state().measure_depth();
}

TEST(SortNative, TreeDepthEqualsTreeWalk) {
  const std::size_t sizes[] = {2, 63, 64, 65, 4096, std::size_t{1} << 16};
  for (const Options& path : depth_paths()) {
    for (std::uint32_t t : {1u, 4u}) {
      Options opts = path;
      opts.threads = t;
      // The canned staggered-kills adversary: every worker but id 0 dies.
      const wfsort::runtime::FaultScript script =
          wfsort::runtime::staggered_kills(/*first_round=*/40, /*stride=*/400, t,
                                           /*survivors=*/1);
      for (std::size_t n : sizes) {
        for (Workload w : kDepthWorkloads) {
          for (bool faulted : {false, true}) {
            const std::string label =
                depth_label(opts, n, w) + (faulted ? "_faulted" : "");
            auto v = make_workload(w, n, 31 + n);
            const auto orig = v;
            U64Engine engine(std::span<std::uint64_t>(v), {}, opts);
            wfsort::runtime::FaultPlan plan(t);
            wfsort::runtime::program_plan(script, plan);
            SortStats stats;
            ASSERT_TRUE(wfsort::detail::drive(engine, opts, faulted ? &plan : nullptr,
                                              wfsort::detail::ThreadLauncher{},
                                              &stats))
                << label;
            expect_sorted_permutation(orig, v, label);
            EXPECT_EQ(stats.tree_depth, engine.state().measure_depth()) << label;
            if (engine.effective_variant() == Variant::kDeterministic &&
                opts.phase1 == Phase1::kTree) {
              EXPECT_EQ(stats.tree_depth, stats.max_build_iters + 1) << label;
            }
          }
        }
      }
    }
  }
}

TEST(SortNative, TreeDepthEqualsTreeWalkThroughPoolAndSession) {
  constexpr std::size_t kN = 4096;
  wfsort::SortPool pool(4);
  for (const Options& path : depth_paths()) {
    for (Workload w : kDepthWorkloads) {
      const auto orig = make_workload(w, kN, 5);
      // SortPool at t=1: the pooled run is the solo run, on recycled memory.
      Options solo = path;
      solo.threads = 1;
      auto pooled = orig;
      SortStats pool_stats;
      pool.sort(std::span<std::uint64_t>(pooled), solo, &pool_stats);
      expect_sorted_permutation(orig, pooled, depth_label(solo, kN, w) + "_pool");
      EXPECT_EQ(pool_stats.tree_depth, solo_walked_depth(orig, solo))
          << depth_label(solo, kN, w) << "_pool";

      // A SortSession nobody spawns into: wait() runs worker 0 alone.
      Options session_opts = path;
      session_opts.threads = 4;
      auto in_session = orig;
      wfsort::SortSession<std::uint64_t> session(std::span<std::uint64_t>(in_session),
                                                 session_opts);
      session.wait();
      expect_sorted_permutation(orig, in_session,
                                depth_label(session_opts, kN, w) + "_session");
      EXPECT_EQ(session.stats().tree_depth, solo_walked_depth(orig, session_opts))
          << depth_label(session_opts, kN, w) << "_session";
    }
  }
}

// ------------------------------------------------------------ fault injection

TEST(SortFaults, CrashAllButOneWorkerStillSorts) {
  for (std::uint64_t crash_point : {1ULL, 10ULL, 100ULL, 1000ULL}) {
    auto v = make_workload(Workload::kRandom, 2048, crash_point);
    auto orig = v;
    constexpr std::uint32_t kThreads = 4;
    wfsort::runtime::FaultPlan plan(kThreads);
    for (std::uint32_t t = 1; t < kThreads; ++t) plan.crash_at(t, crash_point);
    SortStats stats;
    const bool ok = wfsort::sort_with_faults(std::span<std::uint64_t>(v),
                                             Options{.threads = kThreads}, plan, &stats);
    ASSERT_TRUE(ok) << "crash_point=" << crash_point;
    expect_sorted_permutation(orig, v, "crash@" + std::to_string(crash_point));
    // On a single-CPU host a worker may finish before the others even start,
    // in which case late workers complete trivially before reaching their
    // crash trigger; only the lower bound of one completer is guaranteed.
    EXPECT_LE(stats.crashed_workers, kThreads - 1);
    EXPECT_GE(stats.completed_workers, 1u);
    if (crash_point == 1) {
      EXPECT_EQ(stats.crashed_workers, kThreads - 1);
    }
  }
}

TEST(SortFaults, CrashAllWorkersReportsFailureAndLeavesDataIntact) {
  auto v = make_workload(Workload::kRandom, 512, 7);
  auto orig = v;
  constexpr std::uint32_t kThreads = 3;
  wfsort::runtime::FaultPlan plan(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) plan.crash_at(t, 5);
  const bool ok =
      wfsort::sort_with_faults(std::span<std::uint64_t>(v), Options{.threads = kThreads}, plan);
  EXPECT_FALSE(ok);
  EXPECT_EQ(v, orig);  // untouched on failure
}

TEST(SortFaults, StaggeredCrashesAcrossPhases) {
  // Crash workers at wildly different points so failures land in different
  // phases; the survivor must finish regardless.
  auto v = make_workload(Workload::kRandom, 4096, 99);
  auto orig = v;
  constexpr std::uint32_t kThreads = 6;
  wfsort::runtime::FaultPlan plan(kThreads);
  plan.crash_at(1, 3);
  plan.crash_at(2, 50);
  plan.crash_at(3, 500);
  plan.crash_at(4, 5000);
  plan.crash_at(5, 20000);
  const bool ok =
      wfsort::sort_with_faults(std::span<std::uint64_t>(v), Options{.threads = kThreads}, plan);
  ASSERT_TRUE(ok);
  expect_sorted_permutation(orig, v, "staggered");
}

TEST(SortFaults, PageFaultSleepsDoNotBlockOthers) {
  auto v = make_workload(Workload::kRandom, 2048, 11);
  auto orig = v;
  constexpr std::uint32_t kThreads = 4;
  wfsort::runtime::FaultPlan plan(kThreads);
  plan.sleep_at(0, 10, std::chrono::microseconds(20000));
  plan.sleep_at(1, 100, std::chrono::microseconds(10000));
  const bool ok =
      wfsort::sort_with_faults(std::span<std::uint64_t>(v), Options{.threads = kThreads}, plan);
  ASSERT_TRUE(ok);
  expect_sorted_permutation(orig, v, "sleeps");
}

TEST(SortFaults, CrashesWithLowContentionVariant) {
  for (std::uint64_t crash_point : {5ULL, 200ULL, 3000ULL}) {
    auto v = make_workload(Workload::kRandom, 1024, crash_point * 3);
    auto orig = v;
    constexpr std::uint32_t kThreads = 4;
    wfsort::runtime::FaultPlan plan(kThreads);
    for (std::uint32_t t = 1; t < kThreads; ++t) plan.crash_at(t, crash_point);
    const bool ok = wfsort::sort_with_faults(
        std::span<std::uint64_t>(v),
        Options{.threads = kThreads, .variant = Variant::kLowContention}, plan);
    ASSERT_TRUE(ok) << crash_point;
    expect_sorted_permutation(orig, v, "lc-crash@" + std::to_string(crash_point));
  }
}

TEST(SortFaults, CannedAdversaryAtNonDefaultKnobs) {
  // The canned staggered-kills adversary, compiled onto the native substrate
  // via program_plan, against knobs far from the defaults on both sides:
  // batching and the sequential cutoff must not open any crash window (the
  // cutoff's completion flag is published only after the block walk).
  constexpr std::uint32_t kThreads = 4;
  const wfsort::runtime::FaultScript script =
      wfsort::runtime::staggered_kills(/*first_round=*/40, /*stride=*/400, kThreads,
                                       /*survivors=*/1);
  for (const Options& opts :
       {Options{.threads = kThreads, .wat_batch = 1, .seq_cutoff = 512},
        Options{.threads = kThreads, .wat_batch = 64, .seq_cutoff = 0},
        // The blocked-partition phase 1 at both knob extremes: its three
        // WAT-driven sweeps (classify, scatter, bucket-sort) must tolerate
        // the same kills as the tree path — every write is idempotent and
        // the kAllJobsDone gates publish each sweep exactly once.
        Options{.threads = kThreads,
                .phase1 = Phase1::kPartition,
                .wat_batch = 1,
                .seq_cutoff = 512},
        Options{.threads = kThreads,
                .phase1 = Phase1::kPartition,
                .wat_batch = 64,
                .seq_cutoff = 0},
        Options{.threads = kThreads,
                .variant = Variant::kLowContention,
                .wat_batch = 64,
                .seq_cutoff = 512},
        // LC fast-path knobs far from their defaults: paper-literal one-node
        // probes with backoff disabled, and a deep-burst / aggressive-backoff
        // extreme — the crash windows must stay closed at both ends.
        Options{.threads = kThreads,
                .variant = Variant::kLowContention,
                .wat_batch = 1,
                .lc_burst = 1,
                .backoff_limit = 0},
        Options{.threads = kThreads,
                .variant = Variant::kLowContention,
                .seq_cutoff = 0,
                .lc_burst = 512,
                .backoff_limit = 12}}) {
    auto v = make_workload(Workload::kRandom, 2048, 77);
    auto orig = v;
    wfsort::runtime::FaultPlan plan(kThreads);
    wfsort::runtime::program_plan(script, plan);
    SortStats stats;
    const bool ok =
        wfsort::sort_with_faults(std::span<std::uint64_t>(v), opts, plan, &stats);
    ASSERT_TRUE(ok);
    expect_sorted_permutation(
        orig, v, "canned b" + std::to_string(opts.wat_batch) + "_c" +
                     std::to_string(opts.seq_cutoff) +
                     (opts.phase1 == Phase1::kPartition ? "_part" : ""));
    EXPECT_GE(stats.completed_workers, 1u);
  }
}

TEST(SortFaults, PartitionPathStaggeredCrashes) {
  // Large enough that the partition path has many chunks (n / 2048) and
  // several buckets, so the staggered kills land inside all three sweeps;
  // the lone survivor must drain every WAT and finish the sort alone.
  auto v = make_workload(Workload::kFewDistinct, 50000, 13);
  auto orig = v;
  constexpr std::uint32_t kThreads = 6;
  wfsort::runtime::FaultPlan plan(kThreads);
  plan.crash_at(1, 3);
  plan.crash_at(2, 50);
  plan.crash_at(3, 500);
  plan.crash_at(4, 5000);
  plan.crash_at(5, 20000);
  SortStats stats;
  const bool ok = wfsort::sort_with_faults(
      std::span<std::uint64_t>(v),
      Options{.threads = kThreads, .phase1 = Phase1::kPartition}, plan, &stats);
  ASSERT_TRUE(ok);
  expect_sorted_permutation(orig, v, "partition-staggered");
  EXPECT_GE(stats.completed_workers, 1u);
}

TEST(SortFaults, SuspendAndReviveLcAtNonDefaultKnobs) {
  // The suspend-and-revive adversary — on the native substrate a long
  // mid-phase sleep IS suspend-then-revive (the simulator's kSuspend/kRevive
  // pair has no thread equivalent) — against the LC fast path with its knobs
  // pushed off the defaults: revived workers must rejoin whatever stage the
  // survivors advanced to, so stale burst stacks, claim runs, and backoff
  // states must all be harmless.
  constexpr std::uint32_t kThreads = 4;
  for (const Options& opts :
       {Options{.threads = kThreads,
                .variant = Variant::kLowContention,
                .lc_burst = 1,
                .backoff_limit = 0},
        Options{.threads = kThreads,
                .variant = Variant::kLowContention,
                .wat_batch = 1,
                .lc_burst = 256,
                .backoff_limit = 10}}) {
    auto v = make_workload(Workload::kRandom, 2048, 91);
    auto orig = v;
    wfsort::runtime::FaultPlan plan(kThreads);
    for (std::uint32_t t = 1; t < kThreads; ++t) {
      plan.sleep_at(t, 64 + 100 * t, std::chrono::microseconds(20000));
    }
    SortStats stats;
    const bool ok =
        wfsort::sort_with_faults(std::span<std::uint64_t>(v), opts, plan, &stats);
    ASSERT_TRUE(ok);
    expect_sorted_permutation(
        orig, v, "revive burst=" + std::to_string(opts.lc_burst));
    EXPECT_GE(stats.completed_workers, 1u);
  }
}

TEST(SortFaults, PruneNoSurvivesMidPlacementCrashes) {
  // The never-prune policy is trivially crash-safe: with every worker but
  // one killed in phase-3 territory, the survivor re-traverses everything
  // and the sort completes, in each of 20 crash timings.
  for (int attempt = 0; attempt < 20; ++attempt) {
    auto v = make_workload(Workload::kRandom, 1024, 1000 + attempt);
    auto orig = v;
    constexpr std::uint32_t kThreads = 4;
    wfsort::runtime::FaultPlan plan(kThreads);
    for (std::uint32_t t = 1; t < kThreads; ++t) {
      plan.crash_at(t, 1500 + 37 * attempt);  // mid phase-3 territory
    }
    const bool ok = wfsort::sort_with_faults(
        std::span<std::uint64_t>(v),
        Options{.threads = kThreads, .prune = PrunePlaced::kNo}, plan);
    ASSERT_TRUE(ok);
    expect_sorted_permutation(orig, v, "kNo attempt " + std::to_string(attempt));
  }
}

}  // namespace
