// The one run path behind every blocking native entry point: sort(),
// sort_with_faults(), sort_permutation() and SortPool's submits.
//
// Wait-freedom makes every such call the same program: any one worker that
// finishes delivers the result, so the caller starts the worker ids, runs
// one of them itself, joins, and collects.  drive() does exactly that for a
// built Engine; the entry points differ only in how the Engine is built
// (own or pooled arena, copy-back on or off) and in the launcher that
// starts ids 1..P-1:
//
//   ThreadLauncher  cold calls: one transient std::jthread per extra id, so
//                   every worker id runs (tests assert completed_workers ==
//                   threads on cold calls);
//   SortPool's      parked pool workers, or none at all below its
//   launcher        caller-only cutoff (pool.h).
//
// drive() also owns the call's single wall clock: SortStats::wall_ms and
// the live monitor's job latency are the same measurement.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/detail/engine.h"
#include "core/options.h"
#include "runtime/fault_plan.h"
#include "telemetry/monitor.h"

namespace wfsort::detail {

// Build and start the run's live monitor when the Options ask for one
// (monitor_path + monitor_interval_ms set, telemetry on so the engine holds
// a Recorder).  Returns null — and the sort runs exactly as before — in
// every other case, including an unopenable sink.
inline std::unique_ptr<telemetry::Monitor> make_monitor(
    const telemetry::Recorder* rec, const Options& opts, std::uint64_t n) {
  if (rec == nullptr || opts.monitor_interval_ms == 0 ||
      opts.monitor_path.empty()) {
    return nullptr;
  }
  telemetry::Monitor::Config cfg;
  cfg.path = opts.monitor_path;
  cfg.interval_ms = opts.monitor_interval_ms;
  cfg.source = "native";
  cfg.config.set("variant",
                 opts.variant == Variant::kLowContention ? "lc" : "det");
  cfg.config.set("n", static_cast<std::int64_t>(n));
  cfg.config.set("threads", static_cast<std::int64_t>(opts.resolved_threads()));
  cfg.config.set("seed", static_cast<std::int64_t>(opts.seed));
  cfg.config.set("ring_capacity", static_cast<std::int64_t>(opts.ring_capacity));
  auto mon = std::make_unique<telemetry::Monitor>(rec, std::move(cfg));
  if (!mon->ok()) return nullptr;
  mon->start();
  return mon;
}

// The cold launcher: a transient thread for each of ids 1..P-1 (none for
// inputs of at most one element, where there is nothing to share).
class ThreadLauncher {
 public:
  template <typename Engine>
  void start(Engine& engine, runtime::FaultPlan* plan, std::uint32_t workers) {
    if (engine.size() <= 1 || workers <= 1) return;
    threads_.reserve(workers - 1);
    for (std::uint32_t tid = 1; tid < workers; ++tid) {
      threads_.emplace_back([&engine, plan, tid] { engine.run_worker(tid, plan); });
    }
  }
  void join(bool /*caller_completed*/) { threads_.clear(); }

 private:
  std::vector<std::jthread> threads_;
};

// Run `engine` to the end as worker 0 on the calling thread plus whatever
// `launcher` starts, then deliver: finalize() when some worker completed,
// else keep the partial telemetry timeline for the fault tooling.  Returns
// whether the result is ready (false only when a fault plan killed every
// worker; `data` is then untouched).
template <typename Key, typename Compare, typename Launcher>
bool drive(Engine<Key, Compare>& engine, const Options& opts,
           runtime::FaultPlan* plan, Launcher&& launcher, SortStats* stats) {
  const auto monitor = make_monitor(engine.recorder(), opts, engine.size());
  launcher.start(engine, plan, opts.resolved_threads());
  launcher.join(engine.run_worker(0, plan));
  const bool ok = engine.result_ready();
  if (ok) {
    engine.finalize();
  } else {
    engine.snapshot_telemetry();
  }
  const auto wall = std::chrono::steady_clock::now() - engine.started();
  if (monitor != nullptr) {
    monitor->note_job(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(wall).count()));
    monitor->stop();
  }
  if (stats != nullptr) {
    *stats = engine.stats();
    stats->wall_ms = std::chrono::duration<double, std::milli>(wall).count();
  }
  return ok;
}

}  // namespace wfsort::detail
