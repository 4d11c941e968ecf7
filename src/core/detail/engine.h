// The sort engine: shared state plus the per-worker program.
//
// One Engine instance lives for the duration of one sort.  Any number of
// workers (threads) may execute run_worker() concurrently; each worker runs
// every phase to its own completion, so the sorted result is ready as soon
// as ANY ONE worker returns true — that is the wait-freedom guarantee made
// operational.  Workers that crash (fault injection returns false) leave
// only idempotent or write-once state behind and never endanger the rest.
//
// Hot-path structure (docs/native_engine.md):
//   * every entry point constructs an Engine, and the Engine CHECKs
//     n < 2^31 (detail::kMaxElements) before it allocates anything or reads
//     the input, so every element index fits the records' 32-bit fields;
//   * the pivot tree lives in packed 32-byte per-node records (TreeState),
//     one cache-line visit instead of four parallel arrays; the partition
//     phase 1 builds no tree and allocates no records at all;
//   * phase-1 work is claimed in batches of Options::wat_batch adjacent
//     jobs per WAT traversal (the paper's K), built with interleaved,
//     prefetched descents (build_batch); the jobs are positions in a
//     seeded pseudo-random insertion order (Phase1Order, Section 2.3's
//     random-first pickup), so no input order builds a deep tree;
//   * phase-3 subtrees at or below Options::seq_cutoff are emitted by one
//     sequential in-order walk (place_block);
//   * set-up constructs each node record once, in place, in its initial
//     state (the paper's records with EMPTY children already in shared
//     memory), whatever the storage held before;
//   * per-element statistics accumulate in per-worker tallies and are
//     flushed into the shared atomics once per phase; the pivot tree's
//     depth is derived from those tallies (Lemma 2.4: an element's build
//     iterations are its depth minus one), never by walking the tree;
//   * workers that finish all phases help copy the assembled output back
//     into the caller's buffer in parallel chunks — safe because keys were
//     copied up front (into the node records, or into the partition path's
//     own key array), so nobody reads the caller's buffer after
//     construction.  finalize() only sweeps chunks no worker
//     got to (it must still be called after the workers are joined and at
//     least one completed).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/bits.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/detail/build_phase.h"
#include "core/detail/lc_phase.h"
#include "core/detail/partition_phase.h"
#include "core/detail/sum_place_phase.h"
#include "core/detail/tree_state.h"
#include "core/options.h"
#include "lowcontention/fat_tree.h"
#include "lowcontention/winner_tree.h"
#include "runtime/fault_plan.h"
#include "telemetry/recorder.h"
#include "workalloc/lcwat.h"
#include "workalloc/wat.h"

namespace wfsort::detail {

inline void atomic_fetch_max(std::atomic<std::uint64_t>& a, std::uint64_t v) {
  std::uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Stage ids for the low-contention variant's per-worker RNG streams.
enum class LcRngStage : std::uint64_t {
  kWinner = 1,  // stage B: winner-tree pre-wait coin tosses
  kFatten = 2,  // stage D: write-most cell choices
  kInsert = 3,  // stage E: LC-WAT probes + fat-tree copy draws
  kSum = 4,     // stage F: summation probes
  kPlace = 5,   // stage G: placement probes
};

// The randomized variant's RNG for worker `tid` in `stage`: deterministic in
// (Options::seed, tid, stage) and nothing else.  One stream per STAGE — not
// one per worker threaded through all stages — so the draw sequence a stage
// sees never depends on how many draws earlier stages happened to make,
// which varies with interleaving (how many LC-WAT probes until the claims
// ran out, who won stage C, ...).  That independence is what makes `wfsort
// replay` of LC failure artifacts bit-stable: a fault script that perturbs
// stage E cannot shift the randomness of stages F/G.
inline Rng worker_stage_rng(std::uint64_t seed, std::uint32_t tid, LcRngStage stage) {
  return Rng(seed ^ tid).fork(static_cast<std::uint64_t>(stage));
}

// Below this size the low-contention variant falls back to the
// deterministic one: with fewer elements than this there is no slice worth
// pre-sorting and no contention worth spreading.  (Namespace scope, not
// Engine scope: SortPool's arena-lane selection mirrors the fallback and
// must not have to name a template instantiation to do it.)
inline constexpr std::uint64_t kLcMinN = 64;

// The variant a run of `n` elements actually executes.
inline Variant effective_variant(const Options& opts, std::uint64_t n) {
  return opts.variant == Variant::kLowContention && n < kLcMinN
             ? Variant::kDeterministic
             : opts.variant;
}

// Output copy-back is chunked so finished workers can share it; the
// per-chunk done flags make finalize()'s sweep exact.
inline constexpr std::uint64_t kCopyChunk = 8192;

// Telemetry scratch slots cover every worker id a SortSession can hand
// out (its kMaxWorkers), not just the nominal thread count — replacement
// workers get ids past `threads` and must still be recordable.  SortPool
// sizes its recycled Recorders with the same formula as the Engine.
inline constexpr std::uint32_t kTelemetrySlots = 64;

template <typename Key, typename Compare>
class Engine {
 public:

  // `assemble_into_data` controls whether workers (and finalize) write the
  // sorted output back into `data`; sort_permutation turns it off because
  // its input must stay untouched.
  //
  // `arena` (optional) is where every shared structure of the run — node
  // records, output slots, WAT done-bits, partition scratch, LC fat-tree
  // planes — takes its storage from.  Null means the engine wraps its own
  // private arena (the cold one-shot path: allocate, sort, free).  SortPool
  // passes its recycled per-variant arena instead, which is what makes
  // steady-state pooled submits allocation-free.  The arena must outlive
  // the Engine, and its begin_run() must have been called for this run.
  //
  // `recorder` (optional, only meaningful when Options::telemetry != kOff)
  // lends the engine pre-sized telemetry scratch; null means the engine
  // builds its own.  A borrowed recorder must already be reuse()-armed and
  // shape-matched (SortPool does both).
  Engine(std::span<Key> data, Compare cmp, const Options& opts,
         bool assemble_into_data = true, RunArena* arena = nullptr,
         telemetry::Recorder* recorder = nullptr)
      : data_(checked_size(data)),
        opts_(opts),
        effective_variant_(detail::effective_variant(opts, data.size())),
        nominal_threads_(opts.resolved_threads()),
        wat_batch_(std::max<std::uint64_t>(1, opts.wat_batch)),
        seq_cutoff_(opts.seq_cutoff),
        copy_back_(assemble_into_data),
        arena_(arena != nullptr ? arena : &own_arena_),
        st_(std::span<const Key>(data.data(), data.size()), cmp, arena_,
            /*with_records=*/!partition_path()),
        wat_(batch_jobs(data.size() < 2 ? 1 : data.size(), wat_batch_),
             *arena_) {
    if (effective_variant_ == Variant::kLowContention) init_lc();
    if (partition_path()) {
      part_ = arena_->create<PartitionShared<Key>>(
          std::span<const Key>(data_.data(), data_.size()), *arena_);
    }
    if (opts.telemetry != telemetry::Level::kOff && data_.size() > 1) {
      if (recorder != nullptr) {
        recorder_ = recorder;
      } else {
        recorder_owned_ = std::make_unique<telemetry::Recorder>(
            opts.telemetry, std::max(nominal_threads_, kTelemetrySlots),
            opts.ring_capacity);
        recorder_ = recorder_owned_.get();
      }
    }
    if (copy_back_ && data_.size() > 1) {
      copy_chunks_ = (data_.size() + kCopyChunk - 1) / kCopyChunk;
      copy_done_ =
          ArenaArray<std::atomic<std::uint8_t>>(copy_chunks_, *arena_);
    }
  }

  // Arena-placed shared structures need their destructors run before the
  // arena recycles the storage (their bulk arrays are arena-borrowed and
  // trivially destructible, but the objects themselves are not).
  ~Engine() {
    if (lc_ != nullptr) lc_->~LcShared();
    if (part_ != nullptr) part_->~PartitionShared();
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Variant effective_variant() const { return effective_variant_; }

  // Execute all phases as worker `tid`.  Returns false if the fault plan
  // aborted this worker ("crash"); shared state remains safe for others.
  bool run_worker(std::uint32_t tid, runtime::FaultPlan* plan = nullptr) {
    if (data_.size() <= 1) {
      completed_.fetch_add(1, std::memory_order_acq_rel);
      return true;
    }
    telemetry::WorkerScratch* tel =
        recorder_ != nullptr ? recorder_->scratch(tid) : nullptr;
    // Closes the worker's open span on every exit path, so a fault-injected
    // crash leaves a truncated span instead of a dangling one.
    telemetry::ScratchCloser closer(tel);
    const bool ok = effective_variant_ != Variant::kDeterministic
                        ? run_low_contention(tid, plan, tel)
                        : (part_ != nullptr ? run_partition(tid, plan, tel)
                                            : run_deterministic(tid, plan, tel));
    if (!ok) {
      // mark_crashed lands the post-mortem kFault event in the victim's own
      // ring (single-writer rule: the dying worker writes its own epitaph).
      if (tel != nullptr) tel->mark_crashed(tel->now_us());
      crashed_.fetch_add(1, std::memory_order_acq_rel);
      return false;
    }
    // This worker placed or pruned-as-placed every element, so the output
    // is fully assembled: help copy it back while stragglers keep going
    // (they only touch the run's own arrays, never the caller's buffer).
    enter_phase(tel, telemetry::PhaseId::kCopyBack);
    assist_copy_back();
    return true;
  }

  // True once some worker has completed all phases (result fully assembled).
  bool result_ready() const { return completed_.load(std::memory_order_acquire) > 0; }

  // Deliver any output chunks the workers did not already copy back.  Call
  // with all workers joined (or known crashed) and result_ready().
  void finalize() {
    if (data_.size() <= 1) return;
    WFSORT_CHECK(result_ready());
    WFSORT_DCHECK(part_ != nullptr ? part_->all_ranked() : st_.all_placed());
    for (std::uint64_t c = 0; c < copy_chunks_; ++c) {
      if (copy_done_[c].load(std::memory_order_acquire) == 0) copy_chunk(c);
    }
    snapshot_telemetry();
  }

  // Freeze the run's telemetry into an immutable Report.  Idempotent; call
  // with all workers joined (the scratch slots are unsynchronized).  Also
  // invoked by finalize(); sort_with_faults calls it directly on the failure
  // path, where finalize() never runs but the partial timeline is exactly
  // what the adversary tooling wants.
  void snapshot_telemetry() {
    if (recorder_ == nullptr || report_ != nullptr) return;
    report_ = std::make_shared<const telemetry::Report>(recorder_->snapshot());
  }

  std::shared_ptr<const telemetry::Report> telemetry_report() const {
    return report_;
  }

  // The run's recorder, for observers that sample the flight-recorder rings
  // while workers are live (telemetry::Monitor).  Null at Level::kOff.
  const telemetry::Recorder* recorder() const { return recorder_; }

  SortStats stats() const {
    SortStats s;
    s.n = data_.size();
    s.workers = nominal_threads_;
    s.crashed_workers = crashed_.load(std::memory_order_relaxed);
    s.completed_workers = completed_.load(std::memory_order_relaxed);
    s.max_build_iters = max_build_iters_.load(std::memory_order_relaxed);
    s.total_build_iters = total_build_iters_.load(std::memory_order_relaxed);
    s.cas_failures = cas_failures_.load(std::memory_order_relaxed);
    s.cas_successes = install_cas_.load(std::memory_order_relaxed);
    s.fat_read_misses = fat_misses_.load(std::memory_order_relaxed);
    s.telemetry = report_;
    s.tree_depth =
        static_cast<std::uint32_t>(tree_depth_.load(std::memory_order_relaxed));
    return s;
  }

  std::size_t size() const { return data_.size(); }

  // When construction began: the start of the call's wall clock.
  std::chrono::steady_clock::time_point started() const { return started_; }

  TreeState<Key, Compare>& state() { return st_; }
  const TreeState<Key, Compare>& state() const { return st_; }

  // The sorting permutation of a completed run: perm[rank - 1] = index of
  // the element of that rank.  The partition path hands over its
  // rank-to-index array; the tree paths invert the records' places.  Call
  // with all workers joined and result_ready().
  void permutation(std::span<std::uint32_t> perm) const {
    WFSORT_CHECK(perm.size() == data_.size());
    if (data_.size() <= 1) {
      if (!perm.empty()) perm[0] = 0;
      return;
    }
    if (part_ != nullptr) {
      for (std::size_t r = 0; r < perm.size(); ++r) {
        perm[r] = static_cast<std::uint32_t>(
            part_->perm[r].load(std::memory_order_relaxed));
      }
      return;
    }
    for (std::size_t i = 0; i < perm.size(); ++i) {
      const std::int64_t place = st_.place_of(static_cast<std::int64_t>(i));
      perm[static_cast<std::size_t>(place - 1)] = static_cast<std::uint32_t>(i);
    }
  }

 private:
  // The first member initializer: nothing is allocated or read before it.
  static std::span<Key> checked_size(std::span<Key> data) {
    WFSORT_CHECK(data.size() < kMaxElements);
    return data;
  }

  // Det + Phase1::kPartition: no pivot tree, so no node records.
  bool partition_path() const {
    return effective_variant_ == Variant::kDeterministic &&
           opts_.phase1 == Phase1::kPartition && data_.size() > 1;
  }

  static std::uint64_t batch_jobs(std::uint64_t n, std::uint64_t batch) {
    return (n + batch - 1) / batch;
  }

  struct LcShared {
    std::uint32_t levels = 0;      // H: fat-tree levels
    std::uint64_t slice_len = 0;   // S = 2^H - 1
    std::uint32_t groups = 0;      // sqrt-style group count
    // Group pre-sort structures, placement-new'd into arena storage by
    // init_lc (`constructed` tracks how many pairs the dtor must unwind).
    TreeState<Key, Compare>* group_states = nullptr;
    Wat* group_wats = nullptr;
    std::uint32_t constructed = 0;
    WinnerTree winner;
    FatTree fat;
    LcWat insert_wat;  // randomized phase-1 allocation, one job per K-run
    LcMarks sum_marks;
    LcMarks place_marks;
    // The winner slice's sorted order (global element indices).  Every
    // worker that reaches Stage C before a publication builds the identical
    // contents into its OWN slice of `sorted_bufs` (one slice per worker
    // id, so concurrent builders never write the same bytes) and the first
    // CAS wins; losers simply adopt the published pointer.
    std::int64_t* sorted_bufs = nullptr;  // [sorted_slots] x [slice_len]
    std::uint32_t sorted_slots = 0;
    std::atomic<const std::int64_t*> sorted_idx{nullptr};

    LcShared(std::uint32_t levels_in, std::uint64_t slice_in, std::uint32_t groups_in,
             std::uint32_t threads, std::uint32_t copies, std::uint64_t n,
             std::uint64_t insert_jobs, RunArena& arena)
        : levels(levels_in),
          slice_len(slice_in),
          groups(groups_in),
          winner(threads, /*wait_unit=*/4, arena),
          fat(levels_in, copies, arena),
          insert_wat(insert_jobs, arena),
          sum_marks(n, arena),
          place_marks(n, arena) {}
    ~LcShared() {
      for (std::uint32_t g = constructed; g-- > 0;) {
        group_wats[g].~Wat();
        group_states[g].~TreeState();
      }
    }
  };

  void init_lc() {
    const std::uint64_t n = data_.size();
    // S = 2^H - 1 <= sqrt(N): the fat tree seeds the top ~ (log N)/2 levels.
    const std::uint32_t levels = std::max<std::uint32_t>(1, log2_floor(isqrt(n) + 1));
    const std::uint64_t slice = (std::uint64_t{1} << levels) - 1;
    const std::uint32_t groups = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        std::max<std::uint32_t>(1, isqrt(nominal_threads_)), n / slice));
    const std::uint32_t copies =
        opts_.lc_copies != 0 ? opts_.lc_copies
                             : std::max<std::uint32_t>(2, isqrt(nominal_threads_));
    RunArena& arena = *arena_;
    lc_ = arena.create<LcShared>(levels, slice, groups, nominal_threads_, copies,
                                 n, batch_jobs(n, wat_batch_), arena);
    lc_->group_states = static_cast<TreeState<Key, Compare>*>(
        arena.raw(sizeof(TreeState<Key, Compare>) * groups));
    lc_->group_wats = static_cast<Wat*>(arena.raw(sizeof(Wat) * groups));
    for (std::uint32_t g = 0; g < groups; ++g) {
      auto keys = std::span<const Key>(data_.data() + g * slice, slice);
      ::new (static_cast<void*>(lc_->group_states + g))
          TreeState<Key, Compare>(keys, st_.cmp, &arena);
      ::new (static_cast<void*>(lc_->group_wats + g))
          Wat(batch_jobs(slice, wat_batch_), arena);
      ++lc_->constructed;
    }
    // One sorted-order buffer per worker id the run can legally use (same
    // bound as the telemetry slots: SortSession replacement ids included).
    lc_->sorted_slots = std::max(nominal_threads_, kTelemetrySlots);
    lc_->sorted_bufs = arena.make<std::int64_t>(
        static_cast<std::size_t>(lc_->sorted_slots) * slice);
  }

  // Flush a per-worker phase-1 tally into the shared statistics — one RMW
  // per counter per worker instead of three per element.  `top` is the
  // pivot-tree depth of the nodes the tally's descents started below: 1
  // (the root) on the det path, the fat tree's leaf level in LC stage E, 0
  // for descents that build no part of the pivot tree (LC stage A's group
  // trees).  A descent of k iterations ends at depth top + k, and every
  // worker that finishes an element — by installing it or by finding it
  // installed — walked its whole path, so once every worker has flushed
  // (crashing ones flush too) the maximum is exactly the tree's depth.
  void flush_build(const BuildTally& tally, std::uint64_t top) {
    if (tally.iterations != 0) {
      total_build_iters_.fetch_add(tally.iterations, std::memory_order_relaxed);
      atomic_fetch_max(max_build_iters_, tally.max_iterations);
      if (top != 0) atomic_fetch_max(tree_depth_, top + tally.max_iterations);
    }
    if (tally.cas_failures != 0) {
      cas_failures_.fetch_add(tally.cas_failures, std::memory_order_relaxed);
    }
    if (tally.installs != 0) {
      install_cas_.fetch_add(tally.installs, std::memory_order_relaxed);
    }
  }

  // Claim output chunks and copy them into the caller's buffer.  Only run
  // by workers that completed every phase: their traversal's acquire loads
  // ordered every emission before this point.
  void assist_copy_back() {
    completed_.fetch_add(1, std::memory_order_acq_rel);
    if (!copy_back_) return;
    while (true) {
      const std::uint64_t c = copy_next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= copy_chunks_) return;
      copy_chunk(c);
      copy_done_[c].store(1, std::memory_order_release);
    }
  }

  void copy_chunk(std::uint64_t c) {
    const std::size_t lo = static_cast<std::size_t>(c * kCopyChunk);
    const std::size_t hi = std::min(data_.size(), lo + kCopyChunk);
    for (std::size_t i = lo; i < hi; ++i) {
      data_[i] = st_.out[i].load(std::memory_order_relaxed);
    }
  }

  static void enter_phase(telemetry::WorkerScratch* tel, telemetry::PhaseId p) {
    if (tel != nullptr) tel->begin_phase(p);
  }

  // Drive `wat` to completion from this worker's initial leaf (`slot` of
  // `slots` spreads the workers over the leaves), running `job(j)` on every
  // job leaf it claims.  Polls the fault checkpoint before every WAT step;
  // returns false if the worker was aborted.
  template <typename Check, typename Job>
  static bool drive_wat(Wat& wat, std::uint32_t slot, std::uint32_t slots,
                        const Check& chk, telemetry::WorkerScratch* tel,
                        Job&& job) {
    const bool tel_detail = tel != nullptr && tel->detail;
    std::uint64_t probes = 1;  // WAT nodes visited since the last claim
    std::int64_t node = wat.initial_leaf(slot, slots);
    while (true) {
      if (!chk()) return false;
      if (wat.is_job_leaf(node)) {
        const std::uint64_t j = wat.job_of(node);
        if (tel_detail) {
          tel->wat_claim(0, probes, j);
          probes = 0;
        }
        if (!job(static_cast<std::int64_t>(j))) return false;
      }
      node = wat.next_element(node);
      ++probes;
      if (node == Wat::kAllJobsDone) return true;
    }
  }

  // --- deterministic variant (Section 2) ---
  // `tel` is the worker's telemetry scratch, null at Level::kOff.
  bool run_deterministic(std::uint32_t tid, runtime::FaultPlan* plan,
                         telemetry::WorkerScratch* tel) {
    const auto chk = [plan, tid] { return plan == nullptr || plan->checkpoint(tid); };
    const std::int64_t n = st_.n();
    const auto batch = static_cast<std::int64_t>(wat_batch_);
    const Phase1Order order(static_cast<std::uint64_t>(n), opts_.seed);

    // Phase 1: WAT-allocated tree building, one batch of adjacent sequence
    // positions per claimed leaf.
    enter_phase(tel, telemetry::PhaseId::kBuild);
    BuildTally tally;
    const bool built =
        drive_wat(wat_, tid, nominal_threads_, chk, tel, [&](std::int64_t j) {
          return build_batch(st_, order, j * batch,
                             std::min(n, j * batch + batch), tally, chk, tel);
        });
    flush_build(tally, /*top=*/1);
    if (!built) return false;
    // Phases 2 and 3.
    enter_phase(tel, telemetry::PhaseId::kSum);
    if (!tree_sum(st_, tid, chk)) return false;
    enter_phase(tel, telemetry::PhaseId::kPlace);
    return find_place_emit(st_, tid, opts_.prune, seq_cutoff_, chk, tel);
  }

  // --- deterministic variant with the blocked-partition phase 1 ---
  // Same worker contract as run_deterministic: helps every sweep to its own
  // completion, crashes leave only idempotent state, nobody waits.  Sweep
  // structure and its correctness argument live in partition_phase.h.
  bool run_partition(std::uint32_t tid, runtime::FaultPlan* plan,
                     telemetry::WorkerScratch* tel) {
    const auto chk = [plan, tid] { return plan == nullptr || plan->checkpoint(tid); };
    PartitionShared<Key>& ps = *part_;
    // thread_local: pooled workers keep the classify/scatter scratch warm
    // across runs (run_worker is never reentrant on one thread).
    static thread_local PartitionLocal<Key> local;
    local.begin_run();
    const auto sweep = [&](Wat& wat, auto&& job) {
      return drive_wat(wat, tid, nominal_threads_, chk, tel, job);
    };

    enter_phase(tel, telemetry::PhaseId::kPartClassify);
    bool ok = partition_prepare(st_, ps, local, chk) &&
              sweep(ps.classify_wat, [&](std::int64_t c) {
                return partition_classify(st_, ps, local, c, chk);
              });
    if (ok) {
      enter_phase(tel, telemetry::PhaseId::kPartScatter);
      ok = partition_offsets(ps, local, chk) &&
           sweep(ps.scatter_wat, [&](std::int64_t c) {
             return partition_scatter(st_, ps, local, c, chk);
           });
    }
    if (ok) {
      enter_phase(tel, telemetry::PhaseId::kPartSort);
      ok = sweep(ps.bucket_wat, [&](std::int64_t b) {
        return partition_bucket(st_, ps, local, b, chk);
      });
    }
    if (tel != nullptr && tel->detail) {
      tel->count(telemetry::Counter::kLeafBlocks, local.tally.blocks);
      tel->count(telemetry::Counter::kLeafInsertionSorts,
                 local.tally.insertion_sorts);
      tel->count(telemetry::Counter::kLeafHeapsorts, local.tally.heapsorts);
      tel->count(telemetry::Counter::kPartitionSwaps, local.tally.partition_swaps);
      if (ps.buckets > 1) {
        tel->count(telemetry::Counter::kSplitterSamples,
                   static_cast<std::uint64_t>(ps.sample_size));
      }
    }
    return ok;
  }

  // --- randomized low-contention variant (Section 3) ---
  bool run_low_contention(std::uint32_t tid, runtime::FaultPlan* plan,
                          telemetry::WorkerScratch* tel) {
    const auto chk = [plan, tid] { return plan == nullptr || plan->checkpoint(tid); };
    const bool tel_detail = tel != nullptr && tel->detail;
    LcShared& lc = *lc_;

    // Stage A: this worker's group pre-sorts its slice with the
    // deterministic algorithm (paper step 1).
    enter_phase(tel, telemetry::PhaseId::kLcPresort);
    const std::uint32_t group = tid % lc.groups;
    const std::uint32_t group_workers =
        std::max<std::uint32_t>(1, nominal_threads_ / lc.groups);
    TreeState<Key, Compare>& gst = lc.group_states[group];
    const auto slice_n = static_cast<std::int64_t>(lc.slice_len);
    const auto batch = static_cast<std::int64_t>(wat_batch_);
    const Phase1Order slice_order(lc.slice_len, opts_.seed);
    BuildTally presort_tally;
    const bool presorted =
        drive_wat(lc.group_wats[group], tid / lc.groups, group_workers, chk, tel,
                  [&](std::int64_t j) {
                    return build_batch(gst, slice_order, j * batch,
                                       std::min(slice_n, j * batch + batch),
                                       presort_tally, chk, tel);
                  }) &&
        tree_sum(gst, tid, chk) &&
        find_place_emit(gst, tid, PrunePlaced::kNo, seq_cutoff_, chk, tel);
    flush_build(presort_tally, /*top=*/0);
    if (!presorted) return false;

    // Stage B: pick the winning group (paper step 2; Figure 9).
    enter_phase(tel, telemetry::PhaseId::kLcWinner);
    Rng rng_winner = worker_stage_rng(opts_.seed, tid, LcRngStage::kWinner);
    const std::int64_t w = lc.winner.compete(tid, group, rng_winner);

    // Stage C: reconstruct the winner slice's sorted order (global element
    // indices).  The winner candidate was submitted by a worker that
    // completed the slice, so every place is set and the contents are the
    // same for every worker — each builder fills its own per-worker buffer
    // (never shared bytes), the first to finish publishes its pointer
    // write-once, and everyone else reuses the published copy.
    enter_phase(tel, telemetry::PhaseId::kLcSortedIdx);
    const std::int64_t* si = lc.sorted_idx.load(std::memory_order_acquire);
    if (si == nullptr) {
      WFSORT_CHECK(tid < lc.sorted_slots);
      std::int64_t* built =
          lc.sorted_bufs + static_cast<std::uint64_t>(tid) * lc.slice_len;
      TreeState<Key, Compare>& wst = lc.group_states[static_cast<std::size_t>(w)];
      for (std::uint64_t i = 0; i < lc.slice_len; ++i) {
        if (!chk()) return false;
        const std::int64_t pl = wst.place_of(static_cast<std::int64_t>(i));
        WFSORT_CHECK(pl > 0);
        built[static_cast<std::size_t>(pl - 1)] =
            static_cast<std::int64_t>(w) * static_cast<std::int64_t>(lc.slice_len) +
            static_cast<std::int64_t>(i);
      }
      const std::int64_t* expected = nullptr;
      if (lc.sorted_idx.compare_exchange_strong(expected, built,
                                                std::memory_order_acq_rel,
                                                std::memory_order_acquire)) {
        si = built;
      } else {
        si = expected;  // someone else published first; ours is ignored
      }
    }
    const std::span<const std::int64_t> sorted_idx(si, lc.slice_len);

    // Stage D: fatten the winner tree (write-most) and stitch its structure
    // into the main pivot tree.  All writes are idempotent (identical values
    // from every worker), so no coordination is needed.
    enter_phase(tel, telemetry::PhaseId::kLcFatten);
    Rng rng_fatten = worker_stage_rng(opts_.seed, tid, LcRngStage::kFatten);
    lc.fat.write_random_cells(sorted_idx, lc.fat.fill_quota(nominal_threads_), rng_fatten);
    const std::int64_t root = sorted_idx[lc.fat.rank_of(0)];
    st_.set_root(root);
    for (std::uint64_t f = 0; f < lc.fat.node_count(); ++f) {
      if (!chk()) return false;
      const std::int64_t pe = sorted_idx[lc.fat.rank_of(f)];
      if (!lc.fat.is_leaf(f)) {
        const std::int64_t se = sorted_idx[lc.fat.rank_of(lc.fat.left(f))];
        const std::int64_t be = sorted_idx[lc.fat.rank_of(lc.fat.right(f))];
        st_.set_child(pe, kSmall, se);
        st_.set_child(pe, kBig, be);
      }
    }

    // Stage E: insert every remaining element (paper step 3).  Work is
    // allocated by random probing (LC-WAT) — one job per STRIPE of
    // ~wat_batch elements (job j covers {j, j+J, j+2J, ...} with J the job
    // count; the paper's K of Lemma 2.7), so the coupon-collector probing
    // cost is paid per stripe, not per element.  Stripes, unlike contiguous
    // runs, keep the seed's depth guarantee: the per-element random order
    // this work allocation doubles as is what bounds the tree depth on
    // adversarial inputs, and a contiguous run of sorted input is a
    // ready-made chain no claim order can unchain (blocks concatenate;
    // measured depth 370 at N=4096 sorted).  A stripe is an even sample of
    // the whole index range, so inserting it in bit-reversed order is
    // globally self-balancing — first stripe claimed anywhere partitions
    // the range like a balanced tree, and every later stripe lands spread
    // across it.  Elements descend the fat tree eight at a time with a
    // pre-drawn copy plane and prefetch (fat_handoffs), then enter the
    // pivot tree through build_lanes with bounded CAS backoff.
    enter_phase(tel, telemetry::PhaseId::kLcInsert);
    Rng rng_insert = worker_stage_rng(opts_.seed, tid, LcRngStage::kInsert);
    const std::int64_t wbase = static_cast<std::int64_t>(w) *
                               static_cast<std::int64_t>(lc.slice_len);
    const std::int64_t wend = wbase + static_cast<std::int64_t>(lc.slice_len);
    const std::int64_t n = st_.n();
    BuildTally tally;
    std::uint64_t fat_misses = 0;
    std::uint64_t fat_reads = 0;
    // thread_local: pooled workers keep the stripe buffer's capacity warm
    // across runs (run_worker is never reentrant on one thread).
    static thread_local std::vector<std::int64_t> run;
    run.clear();
    run.reserve(static_cast<std::size_t>(wat_batch_));
    std::uint64_t lcwat_probes = 0;  // step() calls since last claim
    const auto insert_run = [&](std::uint64_t j) {
      if (tel_detail) {
        tel->wat_claim(1, lcwat_probes, j);
        lcwat_probes = 0;
      }
      const std::uint64_t stride = lc.insert_wat.jobs();
      const std::uint64_t un = static_cast<std::uint64_t>(n);
      const std::uint64_t len = (un - j + stride - 1) / stride;  // stripe size
      const std::uint32_t bits = log2_ceil(next_pow2(len));
      run.clear();
      for (std::uint64_t k = 0; k < (std::uint64_t{1} << bits); ++k) {
        const std::uint64_t off = bit_reverse(k, bits);
        if (off >= len) continue;
        const std::int64_t i = static_cast<std::int64_t>(j + off * stride);
        if (i >= wbase && i < wend) continue;  // already in the tree (fat top)
        run.push_back(i);
      }
      // The run is claimed (marked DONE) only after this returns, so the
      // fault checkpoint stays OUTSIDE: a crashed worker's partial run is
      // re-executed by whoever probes the leaf next, and every insert is
      // idempotent.
      const auto no_abort = [] { return true; };
      for (std::size_t pos = 0; pos < run.size(); pos += kBuildLanes) {
        const int cnt = static_cast<int>(
            std::min<std::size_t>(kBuildLanes, run.size() - pos));
        std::int64_t parents[kBuildLanes];
        fat_handoffs(run.data() + pos, cnt, sorted_idx, rng_insert, fat_misses,
                     fat_reads, parents);
        build_lanes(st_, run.data() + pos, parents, cnt, opts_.backoff_limit,
                    tally, no_abort, tel);
      }
    };
    bool inserted = true;
    while (true) {
      if (!chk()) {
        inserted = false;
        break;
      }
      ++lcwat_probes;
      if (lc.insert_wat.step(rng_insert, insert_run) == LcWat::Outcome::kQuit) break;
    }
    // Descents start below the stitched fat tree's leaves, at depth `levels`.
    flush_build(tally, lc.levels);
    if (fat_misses != 0) fat_misses_.fetch_add(fat_misses, std::memory_order_relaxed);
    if (tel_detail) {
      tel->count(telemetry::Counter::kFatMisses, fat_misses);
      tel->count(telemetry::Counter::kFatHits, fat_reads - fat_misses);
      tel->count(telemetry::Counter::kBackoffSpins, tally.backoff_spins);
    }
    if (!inserted) return false;

    // Stages F, G: randomized summation and placement (Section 3.3), with
    // per-worker probe tallies flushed once per stage.
    LcProbeTally probe_tally;
    const auto flush_probes = [&] {
      if (tel_detail) {
        tel->count(telemetry::Counter::kLcProbes, probe_tally.probes);
        tel->count(telemetry::Counter::kLcBurstVisits, probe_tally.visits);
        probe_tally = {};
      }
    };
    enter_phase(tel, telemetry::PhaseId::kSum);
    Rng rng_sum = worker_stage_rng(opts_.seed, tid, LcRngStage::kSum);
    const bool sum_ok =
        lc_tree_sum(st_, lc.sum_marks, rng_sum, opts_.lc_burst, probe_tally, chk);
    flush_probes();
    if (!sum_ok) return false;
    enter_phase(tel, telemetry::PhaseId::kPlace);
    Rng rng_place = worker_stage_rng(opts_.seed, tid, LcRngStage::kPlace);
    const bool place_ok = lc_find_place_emit(st_, lc.place_marks, rng_place,
                                             opts_.lc_burst, probe_tally, chk);
    flush_probes();
    return place_ok;
  }

  // Batched fat-tree descents for up to kBuildLanes elements: each element
  // draws ONE copy plane for its whole descent (plane-major layout makes the
  // path a compact prefix of that plane), the next node of every in-flight
  // descent is prefetched, and an unfilled cell falls back to the
  // authoritative slice.  Routing is identical to the one-at-a-time form —
  // only the cache misses overlap.
  void fat_handoffs(const std::int64_t* elems, int count,
                    std::span<const std::int64_t> sorted_idx, Rng& rng,
                    std::uint64_t& fat_misses, std::uint64_t& fat_reads,
                    std::int64_t* parents) {
    LcShared& lc = *lc_;
    std::uint64_t node[kBuildLanes];
    std::uint32_t copy[kBuildLanes];
    bool done[kBuildLanes];
    for (int k = 0; k < count; ++k) {
      node[k] = 0;
      copy[k] = lc.fat.draw_copy(rng);
      done[k] = false;
      lc.fat.prefetch(0, copy[k]);
    }
    int remaining = count;
    while (remaining > 0) {
      for (int k = 0; k < count; ++k) {
        if (done[k]) continue;
        ++fat_reads;
        std::int64_t e = lc.fat.read_copy(node[k], copy[k], &fat_misses);
        if (e == FatTree::kEmptyCell) e = sorted_idx[lc.fat.rank_of(node[k])];
        if (lc.fat.is_leaf(node[k])) {
          parents[k] = e;
          done[k] = true;
          --remaining;
          continue;
        }
        node[k] = st_.less(elems[k], e) ? lc.fat.left(node[k]) : lc.fat.right(node[k]);
        lc.fat.prefetch(node[k], copy[k]);
      }
    }
  }

  // Declared first, so it is stamped before any other member is built.
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::span<Key> data_;
  Options opts_;
  Variant effective_variant_;
  std::uint32_t nominal_threads_;
  std::uint64_t wat_batch_;
  std::uint64_t seq_cutoff_;
  bool copy_back_;
  // The run's storage substrate (declared before every structure that
  // borrows from it; destroyed after them).  arena_ points at own_arena_
  // on the cold path and at SortPool's recycled arena on the pooled path.
  RunArena own_arena_;
  RunArena* arena_;
  TreeState<Key, Compare> st_;
  Wat wat_;
  LcShared* lc_ = nullptr;                // arena-placed; dtor runs in ~Engine
  PartitionShared<Key>* part_ = nullptr;  // Phase1::kPartition only; ditto

  std::uint64_t copy_chunks_ = 0;
  std::atomic<std::uint64_t> copy_next_{0};
  ArenaArray<std::atomic<std::uint8_t>> copy_done_;

  telemetry::Recorder* recorder_ = nullptr;  // borrowed (pool) or owned below
  std::unique_ptr<telemetry::Recorder> recorder_owned_;
  std::shared_ptr<const telemetry::Report> report_;

  std::atomic<std::uint64_t> max_build_iters_{0};
  // Pivot-tree depth from the flushed tallies (see flush_build); the root
  // alone is depth 1, which is all the partition path ever builds.
  std::atomic<std::uint64_t> tree_depth_{data_.size() > 1 ? 1u : 0u};
  std::atomic<std::uint64_t> total_build_iters_{0};
  std::atomic<std::uint64_t> cas_failures_{0};
  std::atomic<std::uint64_t> install_cas_{0};
  std::atomic<std::uint32_t> completed_{0};
  std::atomic<std::uint32_t> crashed_{0};
  std::atomic<std::uint64_t> fat_misses_{0};
};

}  // namespace wfsort::detail
