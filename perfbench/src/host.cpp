#include "host.h"

#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

CpuStat read_cpu_stat() {
  CpuStat s;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line)) return s;
  std::istringstream fields(line);
  std::string cpu;
  fields >> cpu;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already counted in user/nice.
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(fields >> v)) break;
    s.total += v;
    if (i == 7) s.steal = v;
  }
  return s;
}

double steal_pct(const CpuStat& before, const CpuStat& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double loadavg_1m() {
  double load[1] = {0.0};
  return getloadavg(load, 1) == 1 ? load[0] : 0.0;
}

std::uint32_t nproc() {
  const unsigned v = std::thread::hardware_concurrency();
  return v == 0 ? 1u : v;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1000000000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return {ns(ru.ru_utime) + ns(ru.ru_stime), ru.ru_nivcsw};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

}  // namespace perfbench
