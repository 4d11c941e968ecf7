// SortSession — the paper's operating-system scenario as an API.
//
// Section 1: "begin the sort by spawning a thread for each idle processor
// ... if a processor is needed elsewhere, reap its thread without fear of
// leaving the program's data structures in an inconsistent state ... if
// other processors become free, spawn more threads to speed up the sort."
//
// A session owns one in-flight sort.  Workers can be added (spawn_worker)
// and cooperatively reaped (reap_worker — the thread exits at its next
// checkpoint, exactly the fault model's crash) at any time.  wait() joins
// the remaining workers; if every worker was reaped before the sort
// finished, the calling thread completes the sort itself — wait-freedom
// makes that always possible and always safe.
//
// Worker threads come from the process-wide SortPool (pool.h) rather than
// per-call threads: spawn_worker enqueues a detached pool job for the
// new worker id, and wait() drains the session's outstanding jobs — helping
// to execute them on the calling thread if the pool is short-handed, so the
// join semantics (and the reap-all edge cases in test_session.cpp) are
// unchanged.  The engine keeps its own private arena: a session lives
// arbitrarily long and must not hold a pool lane hostage.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>

#include "common/check.h"
#include "core/detail/engine.h"
#include "core/options.h"
#include "core/pool.h"
#include "runtime/fault_plan.h"

namespace wfsort {

template <typename T, typename Compare = std::less<T>>
class SortSession {
 public:
  // Maximum workers over the session's lifetime (spawned ids are never
  // reused; the cap sizes the fault-plan and WAT spreading).
  static constexpr std::uint32_t kMaxWorkers = 64;

  explicit SortSession(std::span<T> data, Options opts = {}, Compare cmp = Compare{})
      : engine_(data, cmp, opts), plan_(kMaxWorkers), pool_(&default_pool()) {}

  ~SortSession() { wait(); }

  SortSession(const SortSession&) = delete;
  SortSession& operator=(const SortSession&) = delete;

  // Add a worker; returns its id (usable with reap_worker).  The worker is
  // a detached pool job, picked up by a parked pool thread (or by wait()'s
  // help loop).
  std::uint32_t spawn_worker() {
    std::lock_guard<std::mutex> lock(mu_);
    WFSORT_CHECK(!finalized_);
    WFSORT_CHECK(next_tid_ < kMaxWorkers);
    const std::uint32_t tid = next_tid_++;
    pool_->submit_detached(&SortSession::run_entry, this, tid, &pending_);
    return tid;
  }

  // Ask worker `tid` to stop at its next step ("the processor is needed
  // elsewhere").  Returns immediately; the thread exits on its own.
  void reap_worker(std::uint32_t tid) { plan_.stop_now(tid); }

  // True once some worker has run every phase — the result is complete
  // (wait() still must be called to copy it into the caller's buffer).
  bool finished() const { return engine_.result_ready(); }

  // Join all workers; if none completed (everyone was reaped), finish the
  // sort on the calling thread; then deliver the result.  Idempotent.
  void wait() {
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_) return;
    pool_->wait_pending(&pending_);  // "join": every submitted job has run
    if (!engine_.result_ready()) {
      WFSORT_CHECK(next_tid_ < kMaxWorkers);
      engine_.run_worker(next_tid_++);  // no plan: runs to completion
    }
    engine_.finalize();
    finalized_ = true;
  }

  SortStats stats() const { return engine_.stats(); }

  // The run's telemetry snapshot: null until wait() has joined the workers
  // (the per-worker scratch is unsynchronized), and null for good at
  // Options::telemetry == kOff.
  std::shared_ptr<const telemetry::Report> telemetry() const {
    return engine_.telemetry_report();
  }

 private:
  static bool run_entry(void* self, std::uint32_t tid) {
    auto* s = static_cast<SortSession*>(self);
    return s->engine_.run_worker(tid, &s->plan_);
  }

  detail::Engine<T, Compare> engine_;
  runtime::FaultPlan plan_;
  SortPool* pool_;
  std::mutex mu_;
  std::atomic<std::uint32_t> pending_{0};
  std::uint32_t next_tid_ = 0;
  bool finalized_ = false;
};

}  // namespace wfsort
