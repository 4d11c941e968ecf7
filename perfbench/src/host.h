// Host facts the benchmark stamps on every output: CPU steal, load, process
// resource usage around each call, peak memory and peak heap.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

// Aggregate CPU jiffies from the first line of /proc/stat (zeros when it is
// unreadable, e.g. off Linux).
struct CpuStat {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuStat read_cpu_stat();

// Percentage of the CPU time between two samples that the hypervisor stole.
double steal_pct(const CpuStat& before, const CpuStat& after);

double loadavg_1m();
std::uint32_t nproc();

// Process-wide CPU time (all threads, including exited ones) and
// involuntary context switches, from getrusage(RUSAGE_SELF).
struct Usage {
  std::int64_t cpu_ns = 0;
  std::int64_t nivcsw = 0;
};
Usage usage_now();

// Peak resident set of the process (ru_maxrss), in MiB.
double peak_rss_mb();

// Peak bytes live through the global operator new since the process
// started, in MiB (heap.cpp replaces the operators to count them).
double peak_heap_mb();

// "release" when built with NDEBUG, else "debug".
const char* build_type();

}  // namespace perfbench
