// perfbench: the repository benchmark's workload schedule, runner and
// result model.  README.md in this package documents every workload and
// metric; main.cpp is the command line around run().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/workloads.h"

namespace perfbench {

// Documented default workload seed, and the held-out seed that a later
// performance claim must also hold on (it was not used while tuning).
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 20260917;

// Worker threads of every threaded call (the dev host's nproc).
inline constexpr std::uint32_t kThreads = 4;

// A library configuration: the three t=4 paths the end-to-end metrics are
// named for, plus the partition path at t=1.
enum class Path : std::uint8_t { kTree, kPartition, kLc, kPartitionT1 };
inline constexpr std::size_t kPathCount = 4;
const char* path_name(Path p);

// The public entry point a call goes through.
enum class Entry : std::uint8_t {
  kCold,     // wfsort::sort
  kPooled,   // SortPool::sort on a pool built like wfsort::default_pool()
  kFaulted,  // wfsort::sort_with_faults under the workload's fault plan
};
const char* entry_name(Entry e);

struct Workload {
  std::string name;
  std::uint64_t n = 0;                     // keys per input
  std::vector<wfsort::exp::Dist> dists;    // inputs sorted in every round
  std::uint32_t stream = 0;                // >0: one input per round, taken in
                                           // turn from this many generated ones
  Entry entry = Entry::kCold;              // entry point of the t=4 path calls
                                           // the path metrics time
  bool cold_too = false;                   // plus one cold t=4 call per path,
                                           // checked but timed on its own
  Entry t1_entry = Entry::kCold;           // entry point of the t=1 call
};

// The four workloads at full size, and lookup by name (null if unknown).
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

struct Config {
  Workload workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;     // measuring time, after set-up
  bool trace = false;        // traced run: per-layer metrics + Chrome trace
  std::string trace_path;    // where the traced run writes its trace ("" = none)
  // Self-test hooks: -1 = off, else the 0-based index of the timed call
  // whose output is corrupted / whose fault plan kills every worker.
  std::int64_t corrupt_call = -1;
  std::int64_t kill_all_call = -1;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::uint64_t samples = 0;  // values the figure was taken over
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  // timed calls whose output was checked
  std::uint64_t failed = 0;     // of which wrong, or reported failure
  std::vector<Metric> end_to_end;  // always
  std::vector<Metric> per_layer;   // traced run only
  std::vector<std::string> notes;  // human-readable report lines
};

Result run(const Config& cfg);

// Names and units of the end-to-end metrics, in output order.
struct MetricName {
  std::string name;
  std::string unit;
};
const std::vector<MetricName>& end_to_end_names();
const std::vector<MetricName>& per_layer_names();

}  // namespace perfbench
