// SortPool — a process-lifetime runtime of parked worker threads and
// recycled per-variant RunArenas (ISSUE 10).
//
// The one-shot entry points in sort.h pay the full setup bill on every
// call: spawn P-1 threads, allocate the pivot-tree / WAT / partition / LC
// storage, sort, free, join.  For large N that bill is noise; for small N
// it IS the latency.  A SortPool hoists all of it to process lifetime:
//
//   * T workers are spawned once and parked on a condvar.  A submit
//     publishes a job slot and wakes them; each wakeup claims a worker id
//     under the pool mutex and runs the engine's wait-free program for
//     that id.  Job slots are epoch-stamped (`gen`) so a claim can assert
//     it never outlives a recycled slot.
//   * Three arena lanes — det/tree, det/partition, low-contention — hold
//     the storage high-water mark of every run shape seen so far.  A
//     submit leases its variant's lane (single atomic try-acquire),
//     rewinds the arena, and the Engine borrows every shared structure
//     from it: steady state performs ZERO heap allocations
//     (test_pool.cpp counts operator new to prove it).  A contended lane
//     falls back to a stack-local arena — the cold path, always correct.
//   * Each lane also recycles a telemetry Recorder (rings and span
//     vectors keep their buffers between runs) when telemetry is on.
//
// Wait-freedom is a PER-RUN property and the pool preserves it: within a
// run, a worker that stalls or is fault-killed cannot block the others —
// the claim protocol only gates who STARTS a worker id, never a step
// inside the engine.  Across runs the pool is an ordinary blocking queue
// by design (parked threads are the point).  Because the result is ready
// as soon as ANY worker finishes (write-once idempotent stores make the
// output schedule-independent), the submitting thread always participates
// as worker 0 and never depends on a parked thread showing up: below
// kCallerOnlyCutoff it doesn't even wake one (the small-N fast path), and
// on the wake path it drains unclaimed worker ids itself if the pool is
// short-handed.  docs/native_engine.md "SortPool" has the lifecycle
// diagram and measured cold-vs-pooled numbers.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "core/detail/engine.h"
#include "core/detail/driver.h"
#include "core/options.h"
#include "runtime/fault_plan.h"
#include "telemetry/recorder.h"

namespace wfsort {

// A snapshot of the pool's lifetime counters — the source of the "pool"
// group in the bench JSON schema (schema.h).
struct PoolStats {
  std::uint32_t threads = 0;           // parked workers
  std::uint64_t runs = 0;              // sorts driven through the pool
  std::uint64_t caller_only_runs = 0;  // small-N fast path (no worker wake)
  std::uint64_t detached_jobs = 0;     // session submits executed
  std::uint64_t bypass_runs = 0;       // lane contended -> one-shot arena
  std::uint64_t arena_reuse_bytes = 0; // bytes served from retained buffers
  std::uint64_t arena_grow_events = 0; // retained-slot (re)allocations
  std::uint64_t arena_held_bytes = 0;  // current retained footprint
  std::uint64_t wake_ns = 0;           // cumulative submit->first-claim
};

class SortPool {
 public:
  // One unit of pool work: run the job's worker program as id `tid`.
  // Returns true if this invocation COMPLETED the job (for a sort: the
  // engine's result is ready) — the pool then stops handing out further
  // ids for the job.
  using JobFn = bool (*)(void* ctx, std::uint32_t tid);

  // Below this input size a pooled sort never wakes a worker: the
  // submitting thread runs worker 0 to completion (wait-freedom makes one
  // worker always sufficient), turning a small-N sort into a plain
  // function call over warm storage.  Measured crossover on the tracked
  // bench host (docs/native_engine.md).
  static constexpr std::uint64_t kCallerOnlyCutoff = std::uint64_t{1} << 15;

  // In-flight job slots (a ring; submits block when all are pending).
  static constexpr std::uint32_t kRunSlots = 128;

  // `threads` = 0 resolves like Options::threads (hardware concurrency).
  explicit SortPool(std::uint32_t threads = 0);
  ~SortPool();

  SortPool(const SortPool&) = delete;
  SortPool& operator=(const SortPool&) = delete;

  // Drop-in pooled equivalents of wfsort::sort / sort_with_faults: same
  // output bit for bit (the engine's stores are schedule-independent),
  // same stats contract, amortized setup.
  template <typename T, typename Compare = std::less<T>>
  void sort(std::span<T> data, const Options& opts = {},
            SortStats* stats = nullptr, Compare cmp = Compare{}) {
    run<T, Compare>(data, opts, stats, nullptr, cmp);
  }

  template <typename T, typename Compare = std::less<T>>
  bool sort_with_faults(std::span<T> data, const Options& opts,
                        runtime::FaultPlan& plan, SortStats* stats = nullptr,
                        Compare cmp = Compare{}) {
    return run<T, Compare>(data, opts, stats, &plan, cmp);
  }

  // Fire-and-return a single worker-id job (SortSession's spawn_worker).
  // `*pending` is incremented now and decremented when the job has run;
  // pair with wait_pending().  `ctx` must stay valid until then.
  void submit_detached(JobFn fn, void* ctx, std::uint32_t tid,
                       std::atomic<std::uint32_t>* pending);

  // Block until `*pending` drops to zero.  The calling thread HELPS: while
  // waiting it claims and executes queued jobs (its own session's or
  // anyone's), so progress never depends on the pool having free workers.
  void wait_pending(std::atomic<std::uint32_t>* pending);

  std::uint32_t thread_count() const {
    return static_cast<std::uint32_t>(workers_.size());
  }

  PoolStats stats() const;

 private:
  // One queued job.  All fields are guarded by mu_; execution of fn
  // happens outside the lock.  A slot is recycled (ring position reused)
  // only after `done`, which requires active == 0 — gen is the stamp a
  // claim uses to assert that invariant held.
  struct Slot {
    JobFn fn = nullptr;
    void* ctx = nullptr;
    std::atomic<std::uint32_t>* pending = nullptr;  // detached jobs only
    std::uint64_t gen = 0;
    std::uint32_t next_tid = 0;  // ids [next_tid, max_tid) still unclaimed
    std::uint32_t max_tid = 0;
    std::uint32_t active = 0;    // claims currently executing
    bool quit = false;           // some claim completed the job
    bool detached = false;
    bool done = false;           // retired; ring slot reusable
    bool timed = false;          // first worker claim feeds wake_ns_
    bool first_claim_seen = false;
    std::chrono::steady_clock::time_point t_submit{};
  };

  // One recycled arena (plus cached Recorder) per engine variant.  `busy`
  // serializes runs on the lane; a contended lane is bypassed, never
  // waited on.
  struct Lane {
    std::atomic<bool> busy{false};
    RunArena arena;
    std::unique_ptr<telemetry::Recorder> recorder;
  };
  static constexpr int kLaneDetTree = 0;
  static constexpr int kLaneDetPartition = 1;
  static constexpr int kLaneLc = 2;
  static constexpr int kLanes = 3;

  // RAII lease of a lane; released (and the lane's arena totals folded
  // into the pool counters) on destruction — which the pooled sort path
  // sequences strictly AFTER Engine destruction, because the engine's
  // teardown still touches arena-resident objects.
  class Lease {
   public:
    Lease(SortPool* pool, int lane)
        : pool_(pool),
          lane_(lane),
          ok_(!pool->lanes_[lane].busy.exchange(true,
                                                std::memory_order_acquire)) {}
    ~Lease() { release(); }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    bool ok() const { return ok_; }

    RunArena* begin_run() {
      Lane& l = pool_->lanes_[lane_];
      l.arena.begin_run();
      return &l.arena;
    }

    // A reuse()-armed, shape-matched Recorder for this run (rebuilt only
    // when the required shape changed since the lane's last telemetry run).
    telemetry::Recorder* prepare_recorder(const Options& opts) {
      Lane& l = pool_->lanes_[lane_];
      const std::uint32_t slots =
          std::max(opts.resolved_threads(), detail::kTelemetrySlots);
      if (l.recorder == nullptr ||
          !l.recorder->shape_matches(slots, opts.ring_capacity)) {
        l.recorder = std::make_unique<telemetry::Recorder>(
            opts.telemetry, slots, opts.ring_capacity);
      } else {
        l.recorder->reuse(opts.telemetry);
      }
      return l.recorder.get();
    }

    void release();

   private:
    SortPool* pool_;
    int lane_;
    bool ok_;
  };

  struct BlockingRun {
    std::uint64_t pos = 0;
  };

  // The arena lane a run of this shape allocates from — mirrors the
  // Engine's effective-variant fallback exactly, because each lane's
  // retained slots assume one deterministic allocation sequence family.
  static int lane_for(const Options& opts, std::uint64_t n) {
    if (opts.variant == Variant::kLowContention && n >= detail::kLcMinN) {
      return kLaneLc;
    }
    if (opts.phase1 == Phase1::kPartition && n > 1) return kLaneDetPartition;
    return kLaneDetTree;
  }

  // The pooled launcher for detail::drive: hands worker ids 1..P-1 to the
  // parked workers as one blocking job — or, on a caller-only run, starts
  // nothing and leaves the whole sort to the calling thread's worker 0.
  class Launcher {
   public:
    Launcher(SortPool* pool, bool caller_only)
        : pool_(pool), caller_only_(caller_only) {}

    template <typename Engine>
    void start(Engine& engine, runtime::FaultPlan* plan, std::uint32_t workers) {
      if (caller_only_) return;
      engine_ = &engine;
      plan_ = plan;
      run_ = pool_->begin_blocking(&entry<Engine>, this, 1, workers);
    }
    void join(bool caller_completed) {
      if (!caller_only_) pool_->finish_blocking(run_, caller_completed);
    }

   private:
    // Type-erased trampoline the job slots call for each claimed id.
    template <typename Engine>
    static bool entry(void* self, std::uint32_t tid) {
      auto* l = static_cast<Launcher*>(self);
      return static_cast<Engine*>(l->engine_)->run_worker(tid, l->plan_);
    }

    SortPool* pool_;
    bool caller_only_;
    void* engine_ = nullptr;
    runtime::FaultPlan* plan_ = nullptr;
    BlockingRun run_{};
  };

  // The one pooled run shape: lease the lane, build the engine on the
  // leased arena, drive it (caller-only or wake path), tear down in the
  // right order.  `plan` null = plain sort (cannot fail).
  template <typename T, typename Compare>
  bool run(std::span<T> data, const Options& opts, SortStats* stats,
           runtime::FaultPlan* plan, Compare cmp) {
    const std::uint32_t workers = opts.resolved_threads();
    Lease lease(this, lane_for(opts, data.size()));
    RunArena bypass;  // cold storage for the (rare) contended-lane case
    RunArena* arena;
    telemetry::Recorder* rec = nullptr;
    if (lease.ok()) {
      arena = lease.begin_run();
      if (opts.telemetry != telemetry::Level::kOff && data.size() > 1) {
        rec = lease.prepare_recorder(opts);
      }
    } else {
      arena = &bypass;
      bypass_runs_.fetch_add(1, std::memory_order_relaxed);
    }
    // Fault runs always take the wake path: the plan's kill schedule is
    // written against multiple live worker ids.
    const bool caller_only =
        plan == nullptr &&
        (workers <= 1 || data.size() < kCallerOnlyCutoff || workers_.empty());
    if (caller_only) caller_only_runs_.fetch_add(1, std::memory_order_relaxed);
    bool ok;
    {
      detail::Engine<T, Compare> engine(data, cmp, opts,
                                        /*assemble_into_data=*/true, arena,
                                        rec);
      ok = detail::drive(engine, opts, plan, Launcher(this, caller_only), stats);
    }  // ~Engine runs arena-resident destructors — BEFORE the lane is freed
    runs_.fetch_add(1, std::memory_order_relaxed);
    return ok;
  }

  // Enqueue a job handing out worker ids [tid_begin, tid_end) to parked
  // workers and wake them.  The caller runs its own id (0) directly and
  // then calls finish_blocking.
  BlockingRun begin_blocking(JobFn fn, void* ctx, std::uint32_t tid_begin,
                             std::uint32_t tid_end);

  // Close out a blocking run: stop further claims if the caller already
  // completed the job, drain still-unclaimed ids on the calling thread,
  // wait for in-flight claims, retire the slot.
  void finish_blocking(BlockingRun h, bool caller_completed);

  void worker_main();
  Slot* find_claimable_locked();
  // Claim + execute one queued job if any; true if something ran.
  // `counts_wake` marks a parked-worker claim (feeds wake_ns_).
  bool try_help_locked(std::unique_lock<std::mutex>& lk, bool counts_wake);
  void retire_locked();

  mutable std::mutex mu_;
  std::condition_variable cv_work_;  // parked workers <- new claimable jobs
  std::condition_variable cv_done_;  // submitters <- claims finished / slots freed
  Slot slots_[kRunSlots];
  std::uint64_t head_ = 0;  // oldest unretired ring position
  std::uint64_t tail_ = 0;  // next free ring position
  std::uint64_t gen_ = 0;
  bool stop_ = false;
  std::uint64_t wake_ns_ = 0;  // guarded by mu_
  std::vector<std::jthread> workers_;

  Lane lanes_[kLanes];
  RunArena::Totals lane_totals_[kLanes];  // last-release snapshots (mu_)

  std::atomic<std::uint64_t> runs_{0};
  std::atomic<std::uint64_t> caller_only_runs_{0};
  std::atomic<std::uint64_t> detached_jobs_{0};
  std::atomic<std::uint64_t> bypass_runs_{0};
};

// The lazily-created process-wide pool SortSession and the CLI route
// through.  First call spawns the workers; subsequent calls are a load.
SortPool& default_pool();

}  // namespace wfsort
