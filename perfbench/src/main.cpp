// wfbench — the repository benchmark's measuring program.
//
//   wfbench --workload bulk|small-stream|skewed|faulted [--seed N]
//           [--seconds S] [--trace 0|1] [--trace-out FILE]
//   wfbench --self-test
//
// Prints human-readable report lines prefixed with "# " and, as its last
// line, one JSON object {"correct", "attempted", "failed", "metrics"} whose
// metrics are the end-to-end ones (untraced run) or the per-layer ones
// (--trace 1).  Exits 1 when any checked output was wrong, 2 on bad usage or
// a non-Release build.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "common/json.h"
#include "host.h"

namespace {

using perfbench::Config;
using perfbench::Metric;
using perfbench::Result;

std::string result_json(const Result& r, bool trace) {
  wfsort::Json metrics = wfsort::Json::object();
  for (const Metric& m : trace ? r.per_layer : r.end_to_end) {
    wfsort::Json v = wfsort::Json::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  wfsort::Json doc = wfsort::Json::object();
  doc.set("correct", r.correct);
  doc.set("attempted", r.attempted);
  doc.set("failed", r.failed);
  doc.set("metrics", std::move(metrics));
  return doc.dump_compact();
}

void print_report(const Config& cfg, const Result& r) {
  std::printf("# perfbench workload=%s seed=%llu (held-out seed %llu) seconds=%g trace=%d "
              "build=%s compiler=%s\n",
              cfg.workload.name.c_str(), static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(perfbench::kHeldOutSeed), cfg.seconds,
              cfg.trace ? 1 : 0, perfbench::build_type(), __VERSION__);
  for (const std::string& line : r.notes) std::printf("# %s\n", line.c_str());
  std::printf("# %-40s %16s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : cfg.trace ? r.per_layer : r.end_to_end) {
    std::printf("# %-40s %16.6g %-8s %llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  std::printf("%s\n", result_json(r, cfg.trace).c_str());
  std::fflush(stdout);
}

// --- self-test: tiny sizes, every workload, both modes, both hooks ---

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

Config tiny(const std::string& name) {
  Config c;
  c.workload = *perfbench::find_workload(name);
  c.workload.n = name == "small-stream" ? 256 : name == "skewed" ? 512 : 4096;
  if (c.workload.stream > 0) c.workload.stream = 8;
  c.seconds = 0.05;
  return c;
}

// Every named metric is in `r` with its unit, and in the result line.
void expect_names(const Result& r, bool trace, const std::string& ctx) {
  const auto& names = trace ? perfbench::per_layer_names() : perfbench::end_to_end_names();
  const auto& got = trace ? r.per_layer : r.end_to_end;
  const std::string json = result_json(r, trace);
  for (const auto& n : names) {
    const Metric* m = nullptr;
    for (const Metric& g : got) {
      if (g.name == n.name) m = &g;
    }
    expect(m != nullptr && m->unit == n.unit && std::isfinite(m->value),
           ctx + ": metric " + n.name + " printed with unit " + n.unit);
    expect(json.find("\"" + n.name + "\":{\"value\":") != std::string::npos,
           ctx + ": metric " + n.name + " in the result line");
  }
}

int self_test() {
  for (const auto& w : perfbench::workloads()) {
    for (bool trace : {false, true}) {
      Config c = tiny(w.name);
      c.trace = trace;
      const std::string trace_file = "perfbench-selftest-trace.json";
      if (trace) c.trace_path = trace_file;
      const Result r = perfbench::run(c);
      const std::string ctx = w.name + (trace ? " traced" : " untraced");
      expect(r.correct && r.failed == 0 && r.attempted > 0, ctx + ": all outputs correct");
      expect_names(r, false, ctx);
      for (const Metric& m : r.end_to_end) {
        expect(m.value > 0, ctx + ": end-to-end metric " + m.name + " is nonzero");
      }
      if (trace) {
        expect_names(r, true, ctx);
        expect(std::remove(trace_file.c_str()) == 0, ctx + ": Chrome trace written");
      }
    }
  }
  {  // A corrupted output is a failure.
    Config c = tiny("bulk");
    c.corrupt_call = 0;
    const Result r = perfbench::run(c);
    expect(!r.correct && r.failed == 1, "corrupted output counts as one failure");
  }
  {  // A faulted call whose plan kills every worker is a failure.
    Config c = tiny("faulted");
    c.kill_all_call = 0;
    const Result r = perfbench::run(c);
    expect(!r.correct && r.failed == 1, "all-workers-killed call counts as one failure");
  }
  std::printf("self-test: %s (%d failures)\n", g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "wfbench: %s\nusage: wfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out FILE] | --self-test\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::string(perfbench::build_type()) != "release") {
    std::fprintf(stderr, "wfbench: refusing to measure a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n", perfbench::build_type());
    return 2;
  }
  Config cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return self_test();
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      cfg.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (a == "--seconds") {
      cfg.seconds = std::strtod(v.c_str(), &end);
    } else if (a == "--trace") {
      cfg.trace = v == "1";
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
    } else if (a == "--trace-out") {
      cfg.trace_path = v;
    } else {
      return usage(("unknown option " + a).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) {
      return usage(("bad number for " + a).c_str());
    }
  }
  const perfbench::Workload* w = perfbench::find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(cfg.seconds > 0 && cfg.seconds <= 600)) return usage("--seconds must be in (0, 600]");
  cfg.workload = *w;
  const Result r = perfbench::run(cfg);
  print_report(cfg, r);
  return r.correct ? 0 : 1;
}
