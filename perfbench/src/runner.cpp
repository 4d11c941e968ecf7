// The closed-loop client: one thread drives the workload's fixed call
// schedule round after round, checking every output outside its timed span.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "baselines/parallel_mergesort.h"
#include "bench.h"
#include "common/rng.h"
#include "core/pool.h"
#include "core/sort.h"
#include "host.h"
#include "runtime/fault_plan.h"
#include "telemetry/report.h"
#include "trace.h"

namespace perfbench {

namespace {

using wfsort::exp::Dist;
using wfsort::telemetry::Counter;
using wfsort::telemetry::Level;
using wfsort::telemetry::PhaseId;

// A call whose process CPU falls below this share of threads x wall did not
// have its workers co-scheduled; it is flagged and counted, never dropped.
// Only calls of at least kCoschedMinNs that lose no worker are judged:
// shorter ones are dominated by thread start-up (or run on the caller
// alone), and a faulted t=4 call loses two workers by design.
constexpr double kCoschedFlag = 0.5;
constexpr double kCoschedMinNs = 5e6;

// Traced rounds kept in the Chrome trace (metrics use every traced round).
constexpr std::uint32_t kTraceRoundsKept = 64;

// The faulted workload's plan, as fractions of each worker's own-step count
// in a fault-free probe call: worker 1 crashes early, worker 2 mid-run,
// worker 3 sleeps once (the paper's page fault), worker 0 runs clean.
constexpr double kEarlyCrash = 0.05;
constexpr double kMidCrash = 0.5;
constexpr double kSleepAt = 0.25;
constexpr auto kSleep = std::chrono::microseconds(2000);
constexpr std::uint32_t kScheduledCrashes = 2;
constexpr int kProbeCalls = 2;

// Set-up repetitions of an untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

wfsort::Options path_options(Path p, Level level) {
  wfsort::Options o;
  o.threads = p == Path::kPartitionT1 ? 1 : kThreads;
  if (p == Path::kPartition || p == Path::kPartitionT1) {
    o.phase1 = wfsort::Phase1::kPartition;
  }
  if (p == Path::kLc) o.variant = wfsort::Variant::kLowContention;
  o.telemetry = level;
  return o;
}

// The engine phases each path records, with the short names the per-layer
// metrics use.
struct PhaseName {
  PhaseId id;
  const char* name;
};
const std::vector<PhaseName>& phases_of(Path p) {
  static const std::vector<PhaseName> tree = {{PhaseId::kBuild, "build"},
                                              {PhaseId::kSum, "sum"},
                                              {PhaseId::kPlace, "place"},
                                              {PhaseId::kCopyBack, "copy_back"}};
  static const std::vector<PhaseName> part = {
      {PhaseId::kPartClassify, "classify"},
      {PhaseId::kPartScatter, "scatter"},
      {PhaseId::kPartSort, "bucket"},
      {PhaseId::kCopyBack, "copy_back"}};
  static const std::vector<PhaseName> lc = {
      {PhaseId::kLcPresort, "presort"}, {PhaseId::kLcWinner, "winner"},
      {PhaseId::kLcSortedIdx, "sorted_idx"}, {PhaseId::kLcFatten, "fatten"},
      {PhaseId::kLcInsert, "insert"},   {PhaseId::kSum, "sum"},
      {PhaseId::kPlace, "place"},       {PhaseId::kCopyBack, "copy_back"}};
  switch (p) {
    case Path::kTree: return tree;
    case Path::kLc: return lc;
    default: return part;
  }
}

const char* phase_short(Path p, PhaseId id) {
  for (const PhaseName& ph : phases_of(p)) {
    if (ph.id == id) return ph.name;
  }
  return wfsort::telemetry::phase_name(id);
}

// Per-round accumulators of one round.
struct RoundAcc {
  std::array<double, kPathCount> path_ns{};
  double lib_ns = 0;
  double std_ns = 0;
  double pmerge_ns = 0;
  // Traced rounds: per-layer sums (or maxima) by metric name, turned into
  // the per-layer metrics when the round ends.  Keys starting with '~' are
  // the numerators and denominators of ratio metrics, not metrics.
  std::map<std::string, double> raw;
  void add(const std::string& k, double v) { raw[k] += v; }
  void max(const std::string& k, double v) { raw[k] = std::max(raw[k], v); }
  double get(const std::string& k) const {
    const auto it = raw.find(k);
    return it == raw.end() ? 0.0 : it->second;
  }
};

class Runner {
 public:
  explicit Runner(const Config& cfg) : cfg_(cfg), w_(cfg.workload) {}

  Result run();

 private:
  struct Inputs {
    std::vector<std::vector<std::uint64_t>> keys;
    std::vector<std::vector<std::uint64_t>> sorted;  // std::sort references
  };

  void generate_inputs();
  void probe_fault_steps();
  void run_round(std::uint32_t r, bool traced, bool recorded);
  void library_call(Path p, Entry e, std::size_t input, bool traced,
                    std::uint32_t round_span, RoundAcc& acc, bool recorded);
  void baseline_call(bool pmerge, std::size_t input, std::uint32_t round_span,
                     RoundAcc& acc);
  bool check(std::size_t input, const char* what);
  void add_call_layers(Path p, const wfsort::telemetry::Report& rep,
                       const wfsort::SortStats& st, double wall_ms,
                       RoundAcc& acc);
  void record_traced_engine_spans(Path p, const wfsort::telemetry::Report& rep,
                                  std::uint32_t call_span, std::int64_t t0,
                                  std::int64_t t1);
  void finish_round(const RoundAcc& acc, bool traced);
  std::uint32_t span(std::uint32_t parent, const std::string& name,
                     std::int64_t b, std::int64_t e) {
    if (!keep_spans_) return 0;
    return log_.add(parent, cur_round_, 0, name, b, e);
  }
  std::vector<std::size_t> round_inputs(std::uint32_t r) const;
  Result finish();

  const Config& cfg_;
  const Workload& w_;
  Inputs in_;
  std::vector<std::uint64_t> work_;
  // The pool behind pooled calls, built the way default_pool() builds its
  // own (one worker per hardware thread).  The benchmark owns it so that
  // every set-up repetition pays its construction and first arena growth.
  std::unique_ptr<wfsort::SortPool> pool_;
  // Probe own-step counts per t=4 path and worker (faulted workload).
  std::array<std::array<std::uint64_t, kThreads>, kPathCount> probe_steps_{};

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t call_index_ = 0;  // timed calls so far, incl. set-up ones

  // Untraced rounds.
  std::array<std::vector<double>, kPathCount> path_ns_;
  std::vector<double> lib_ns_;
  std::vector<double> std_ns_, pmerge_ns_;
  std::vector<double> call_ns_, cold_ns_;         // pooled / cold tree calls
  std::vector<double> cosched_, cpu_ms_, nivcsw_;  // every library call
  std::uint64_t flagged_ = 0;
  // Faulted calls (every recorded t=4 one).
  std::vector<double> crashed_, completed_;
  double own_steps_ratio_ = 0;
  std::uint64_t missed_crashes_ = 0;
  // Traced rounds.
  std::array<std::vector<double>, kPathCount> traced_path_ns_;
  std::map<std::string, std::vector<double>> layer_;
  SpanLog log_;
  bool keep_spans_ = false;
  std::uint32_t cur_round_ = 0;
  std::uint32_t traced_rounds_ = 0;

  std::array<std::vector<double>, kPathCount> accounted_;
  std::vector<double> setup_ns_, gen_ns_;
  wfsort::PoolStats pool0_, pool1_;  // around the measured rounds
  double steal_pct_ = 0;
};

std::vector<std::size_t> Runner::round_inputs(std::uint32_t r) const {
  if (w_.stream > 0) return {r % w_.stream};
  std::vector<std::size_t> all(in_.keys.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  return all;
}

void Runner::generate_inputs() {
  const std::size_t count = w_.stream > 0 ? w_.stream : w_.dists.size();
  in_.keys.assign(count, {});
  for (std::size_t i = 0; i < count; ++i) {
    const Dist d = w_.stream > 0 ? w_.dists.front() : w_.dists[i];
    in_.keys[i] = wfsort::exp::make_u64_keys(w_.n, d, wfsort::mix64(cfg_.seed * 1000003 + i));
  }
}

// Fault-free probe calls: each worker's own-step count on each t=4 path
// (the minimum over the probes), which the fault plan's triggers scale.
void Runner::probe_fault_steps() {
  for (Path p : {Path::kTree, Path::kPartition, Path::kLc}) {
    auto& steps = probe_steps_[static_cast<std::size_t>(p)];
    steps.fill(~std::uint64_t{0});
    for (int k = 0; k < kProbeCalls; ++k) {
      work_ = in_.keys.front();
      wfsort::runtime::FaultPlan plan(kThreads);
      const bool ok = wfsort::sort_with_faults(std::span<std::uint64_t>(work_),
                                               path_options(p, Level::kOff), plan);
      ++attempted_;
      if (!check(0, "fault probe") || !ok) ++failed_;
      for (std::uint32_t t = 0; t < kThreads; ++t) {
        steps[t] = std::min(steps[t], plan.steps(t));
      }
    }
  }
}

bool Runner::check(std::size_t input, const char* what) {
  if (work_ == in_.sorted[input]) return true;
  if (failed_ < 8) {
    std::fprintf(stderr, "perfbench: %s: output of input %zu is not its sorted permutation\n",
                 what, input);
  }
  return false;
}

void Runner::library_call(Path p, Entry e, std::size_t input, bool traced,
                          std::uint32_t round_span, RoundAcc& acc,
                          bool recorded) {
  const std::int64_t c0 = now_ns();
  work_ = in_.keys[input];
  const std::int64_t c1 = now_ns();
  span(round_span, "copy_input", c0, c1);

  const wfsort::Options opts = path_options(p, traced ? Level::kFull : Level::kOff);
  const std::size_t pi = static_cast<std::size_t>(p);
  wfsort::SortStats st;
  wfsort::runtime::FaultPlan plan(kThreads);
  std::array<std::uint64_t, kThreads> crash_at{};
  crash_at.fill(~std::uint64_t{0});
  const bool kill_all = static_cast<std::int64_t>(call_index_) == cfg_.kill_all_call;
  if (e == Entry::kFaulted && (opts.threads == kThreads || kill_all)) {
    if (kill_all) {
      for (std::uint32_t t = 0; t < opts.threads; ++t) crash_at[t] = 1;
    } else {
      const auto& s = probe_steps_[pi];
      const auto at = [](std::uint64_t steps, double frac) {
        return std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(static_cast<double>(steps) * frac));
      };
      crash_at[1] = at(s[1], kEarlyCrash);
      crash_at[2] = at(s[2], kMidCrash);
      plan.sleep_at(3, at(s[3], kSleepAt), kSleep);
    }
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      if (crash_at[t] != ~std::uint64_t{0}) plan.crash_at(t, crash_at[t]);
    }
  }

  std::span<std::uint64_t> data(work_);
  bool ok = true;
  const Usage u0 = usage_now();
  const std::int64_t t0 = now_ns();
  switch (e) {
    case Entry::kCold: wfsort::sort(data, opts, &st); break;
    case Entry::kPooled: pool_->sort(data, opts, &st); break;
    case Entry::kFaulted: ok = wfsort::sort_with_faults(data, opts, plan, &st); break;
  }
  const std::int64_t t1 = now_ns();
  const Usage u1 = usage_now();
  const std::string call_name =
      std::string("call ") + path_name(p) + " " + entry_name(e);
  const std::uint32_t call_span = span(round_span, call_name, t0, t1);

  if (static_cast<std::int64_t>(call_index_) == cfg_.corrupt_call && !work_.empty()) {
    work_[work_.size() / 2] ^= 1;  // changes the multiset: must be caught
  }
  ++call_index_;

  const std::int64_t k0 = now_ns();
  bool good = check(input, call_name.c_str()) && ok;
  if (e == Entry::kFaulted && st.crashed_workers != plan.crashes()) good = false;
  const std::int64_t k1 = now_ns();
  span(round_span, "check", k0, k1);
  ++attempted_;
  if (!good) ++failed_;

  const double wall_ns = static_cast<double>(t1 - t0);
  if (e == w_.entry || p == Path::kPartitionT1) {
    acc.path_ns[pi] += wall_ns;
    acc.lib_ns += wall_ns;
  }
  if (!recorded) return;

  if (!traced) {
    const double cpu = static_cast<double>(u1.cpu_ns - u0.cpu_ns);
    cpu_ms_.push_back(cpu / 1e6);
    nivcsw_.push_back(static_cast<double>(u1.nivcsw - u0.nivcsw));
    const bool loses_workers = e == Entry::kFaulted && opts.threads == kThreads;
    if (!loses_workers && wall_ns >= kCoschedMinNs) {
      const double cosched = cpu / (opts.threads * wall_ns);
      cosched_.push_back(cosched);
      if (cosched < kCoschedFlag) ++flagged_;
    }
    if (p == Path::kTree && e == Entry::kPooled) call_ns_.push_back(wall_ns);
    if (p == Path::kTree && e == Entry::kCold) cold_ns_.push_back(wall_ns);
  }
  if (e == Entry::kFaulted && opts.threads == kThreads) {
    crashed_.push_back(st.crashed_workers);
    completed_.push_back(st.completed_workers);
    if (plan.crashes() < kScheduledCrashes) ++missed_crashes_;
    // Wait-freedom certificate: a survivor's own steps stay below
    // 14 N ceil(log2 N).
    const double n = static_cast<double>(w_.n);
    const double cert = 14.0 * n * std::ceil(std::log2(n));
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      if (plan.steps(t) >= crash_at[t]) continue;  // this worker crashed
      own_steps_ratio_ =
          std::max(own_steps_ratio_, static_cast<double>(plan.steps(t)) / cert);
    }
  }
  if (traced && st.telemetry != nullptr) {
    add_call_layers(p, *st.telemetry, st, wall_ns / 1e6, acc);
    if (keep_spans_) record_traced_engine_spans(p, *st.telemetry, call_span, t0, t1);
  }
}

// The engine's per-worker phase spans, placed on the benchmark's clock
// beneath the call span.  The Report's clock starts when the engine is
// built and stops at its snapshot, just before the call returns.
void Runner::record_traced_engine_spans(Path p,
                                        const wfsort::telemetry::Report& rep,
                                        std::uint32_t call_span,
                                        std::int64_t t0, std::int64_t t1) {
  const std::int64_t base =
      std::max(t0, t1 - static_cast<std::int64_t>(rep.wall_us) * 1000);
  for (const auto& w : rep.workers) {
    for (const auto& s : w.spans) {
      log_.add(call_span, cur_round_, 1 + w.tid,
               std::string(path_name(p)) + "/" + phase_short(p, s.phase),
               std::min(t1, base + static_cast<std::int64_t>(s.begin_us) * 1000),
               std::min(t1, base + static_cast<std::int64_t>(s.end_us) * 1000));
    }
  }
}

void Runner::add_call_layers(Path p, const wfsort::telemetry::Report& rep,
                             const wfsort::SortStats& st, double wall_ms,
                             RoundAcc& acc) {
  const std::string pre = std::string("engine.") + path_name(p) + ".";
  for (const PhaseName& ph : phases_of(p)) {
    double busy_us = 0;
    for (const auto& w : rep.workers) {
      for (const auto& s : w.spans) {
        if (s.phase == ph.id) busy_us += static_cast<double>(s.duration_us());
      }
    }
    acc.add(pre + ph.name + "_ms", rep.phase_max_ms(ph.id));
    if (p != Path::kPartitionT1) acc.add(pre + ph.name + "_busy_ms", busy_us / 1e3);
  }
  double busiest_us = 0;
  for (const auto& w : rep.workers) {
    double total = 0;
    for (const auto& s : w.spans) total += static_cast<double>(s.duration_us());
    busiest_us = std::max(busiest_us, total);
  }
  acc.add(pre + "wall_ms", wall_ms);
  acc.add(pre + "unaccounted_ms", wall_ms - busiest_us / 1e3);

  const auto c = [&rep](Counter k) {
    return static_cast<double>(rep.counter_total(k));
  };
  const double n = static_cast<double>(st.n);
  acc.add("~seq_blocks", c(Counter::kSeqBlocks));
  acc.add("~seq_repeats", c(Counter::kSeqBlockRepeats));
  if (p != Path::kLc) {
    acc.add("~wat_claims", c(Counter::kWatClaims));
    acc.add("~wat_probes", c(Counter::kWatProbes));
  }
  switch (p) {
    case Path::kTree:
      acc.max("build.tree_depth", st.tree_depth);
      acc.max("build.max_build_iters", static_cast<double>(st.max_build_iters));
      acc.add("~cas_failures", static_cast<double>(st.cas_failures));
      acc.add("~tree_keys", n);
      break;
    case Path::kLc:
      acc.add("~fat_hits", c(Counter::kFatHits));
      acc.add("~fat_misses", c(Counter::kFatMisses));
      acc.add("lowcontention.backoff_spins", c(Counter::kBackoffSpins));
      acc.add("lowcontention.probes", c(Counter::kLcProbes));
      acc.add("lowcontention.burst_visits", c(Counter::kLcBurstVisits));
      break;
    case Path::kPartition:
      acc.add("leaf.blocks", c(Counter::kLeafBlocks));
      acc.add("leaf.heapsorts", c(Counter::kLeafHeapsorts));
      acc.add("~swaps", c(Counter::kPartitionSwaps));
      acc.add("~part_keys", n);
      acc.add("partition.splitter_samples", c(Counter::kSplitterSamples));
      break;
    case Path::kPartitionT1: break;
  }
}

void Runner::baseline_call(bool pmerge, std::size_t input,
                           std::uint32_t round_span, RoundAcc& acc) {
  work_ = in_.keys[input];
  const std::int64_t t0 = now_ns();
  if (pmerge) {
    wfsort::baselines::parallel_mergesort(std::span<std::uint64_t>(work_), kThreads);
  } else {
    std::sort(work_.begin(), work_.end());
  }
  const std::int64_t t1 = now_ns();
  span(round_span, pmerge ? "baseline pmerge" : "baseline std_sort", t0, t1);
  ++attempted_;
  if (!check(input, pmerge ? "parallel_mergesort" : "std::sort")) ++failed_;
  (pmerge ? acc.pmerge_ns : acc.std_ns) += static_cast<double>(t1 - t0);
}

void Runner::run_round(std::uint32_t r, bool traced, bool recorded) {
  cur_round_ = r;
  keep_spans_ = traced && recorded && !cfg_.trace_path.empty() &&
                traced_rounds_ < kTraceRoundsKept;
  RoundAcc acc;
  const std::int64_t r0 = now_ns();
  const std::uint32_t round_span = keep_spans_ ? log_.add(0, r, 0, "round", r0, r0) : 0;
  for (std::size_t i : round_inputs(r)) {
    for (Path p : {Path::kTree, Path::kPartition, Path::kLc}) {
      library_call(p, w_.entry, i, traced, round_span, acc, recorded);
      if (w_.cold_too) library_call(p, Entry::kCold, i, traced, round_span, acc, recorded);
    }
    library_call(Path::kPartitionT1, w_.t1_entry, i, traced, round_span, acc, recorded);
    baseline_call(false, i, round_span, acc);
    baseline_call(true, i, round_span, acc);
  }
  if (keep_spans_) log_.close(round_span, now_ns());
  if (recorded) finish_round(acc, traced);
}

void Runner::finish_round(const RoundAcc& acc, bool traced) {
  if (!traced) {
    for (std::size_t p = 0; p < kPathCount; ++p) path_ns_[p].push_back(acc.path_ns[p]);
    lib_ns_.push_back(acc.lib_ns);
    std_ns_.push_back(acc.std_ns);
    pmerge_ns_.push_back(acc.pmerge_ns);
    return;
  }
  ++traced_rounds_;
  for (std::size_t p = 0; p < kPathCount; ++p) traced_path_ns_[p].push_back(acc.path_ns[p]);
  for (const auto& [k, v] : acc.raw) {
    if (k[0] != '~') layer_[k].push_back(v);
  }
  const auto ratio = [&acc](const char* num, const char* den) {
    const double d = acc.get(den);
    return d == 0 ? 0.0 : acc.get(num) / d;
  };
  layer_["engine.seq_block_repeat_ratio"].push_back(ratio("~seq_repeats", "~seq_blocks"));
  layer_["build.descent_steps_per_key"].push_back(ratio("~cas_failures", "~tree_keys"));
  layer_["workalloc.claims"].push_back(acc.get("~wat_claims"));
  layer_["workalloc.probes_per_claim"].push_back(ratio("~wat_probes", "~wat_claims"));
  const double fat = acc.get("~fat_hits") + acc.get("~fat_misses");
  layer_["lowcontention.fat_hit_ratio"].push_back(fat == 0 ? 0 : acc.get("~fat_hits") / fat);
  layer_["leaf.swaps_per_key"].push_back(ratio("~swaps", "~part_keys"));
  // Does each path's phase critical paths plus unaccounted time cover its
  // traced call wall time?
  for (std::size_t p = 0; p < kPathCount; ++p) {
    const std::string pre = std::string("engine.") + path_name(static_cast<Path>(p)) + ".";
    double crit = acc.get(pre + "unaccounted_ms");
    for (const PhaseName& ph : phases_of(static_cast<Path>(p))) {
      crit += acc.get(pre + ph.name + "_ms");
    }
    const double wall = acc.get(pre + "wall_ms");
    accounted_[p].push_back(wall == 0 ? 0 : crit / wall);
  }
}

Result Runner::run() {
  const std::int64_t t_start = now_ns();
  // Set-up, repeated from scratch: every repetition builds a fresh pool and
  // fresh inputs, so each pays construction and first touch.  setup_s is
  // the median.  A traced run reports no setup_s and sets up once.
  const int reps = cfg_.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    // Untimed: join the previous repetition's workers, free its arrays.
    pool_.reset();
    in_ = Inputs{};
    work_ = {};
    const std::int64_t s0 = rep == 0 ? t_start : now_ns();
    pool_ = std::make_unique<wfsort::SortPool>();
    const std::int64_t g0 = now_ns();
    generate_inputs();
    gen_ns_.push_back(static_cast<double>(now_ns() - g0));
    in_.sorted = in_.keys;
    for (auto& v : in_.sorted) std::sort(v.begin(), v.end());
    if (w_.t1_entry == Entry::kFaulted) probe_fault_steps();
    run_round(0, false, false);  // warm-up: caches, arenas, pool lanes
    if (cfg_.trace) run_round(0, true, false);
    setup_ns_.push_back(static_cast<double>(now_ns() - s0));
  }

  pool0_ = pool_->stats();
  const CpuStat cpu0 = read_cpu_stat();
  const std::int64_t m0 = now_ns();
  const auto budget = static_cast<std::int64_t>(cfg_.seconds * 1e9);
  const std::uint32_t min_rounds = cfg_.trace ? 2 : 1;
  for (std::uint32_t done = 0; done < min_rounds || now_ns() - m0 < budget; ++done) {
    // A traced run alternates untraced and traced rounds, so both see the
    // same host conditions and their ratio is the tracing overhead.
    run_round(done + 1, cfg_.trace && done % 2 == 1, true);
  }
  steal_pct_ = steal_pct(cpu0, read_cpu_stat());
  pool1_ = pool_->stats();
  return finish();
}

void set_metric(std::vector<Metric>& ms, const std::string& name, double v,
                std::uint64_t samples) {
  for (Metric& m : ms) {
    if (m.name == name) {
      m.value = v;
      m.samples = samples;
      return;
    }
  }
}

Result Runner::finish() {
  Result res;
  res.attempted = attempted_;
  res.failed = failed_;
  res.correct = failed_ == 0;
  const auto rounds = static_cast<std::uint64_t>(lib_ns_.size());
  const auto path_ms = [this](Path p) {
    return median(path_ns_[static_cast<std::size_t>(p)]) / 1e6;
  };
  // Keys one round hands the timed library calls: every input through the
  // three t=4 paths and the t=1 call.
  const double keys_per_round = static_cast<double>(round_inputs(1).size() * w_.n) * 4;
  const double lib_med = median(lib_ns_);
  res.end_to_end = {
      {"setup_s", "s", median(setup_ns_) / 1e9, setup_ns_.size()},
      {"melem_per_s", "Mkeys/s", lib_med == 0 ? 0 : keys_per_round / lib_med * 1e3, rounds},
      {"tree_ms_p50", "ms", path_ms(Path::kTree), rounds},
      {"partition_ms_p50", "ms", path_ms(Path::kPartition), rounds},
      {"lc_ms_p50", "ms", path_ms(Path::kLc), rounds},
      {"partition_t1_ms_p50", "ms", path_ms(Path::kPartitionT1), rounds},
      {"peak_heap_mb", "MiB", peak_heap_mb(), 1},
  };

  char line[320];
  const auto note = [&res, &line] { res.notes.emplace_back(line); };
  std::snprintf(line, sizeof line,
                "host: nproc=%u steal_pct=%.2f loadavg_1m=%.2f cosched_p50=%.3f "
                "cosched_min=%.3f flagged_calls=%llu of %zu judged (no worker lost, >= 5 ms; "
                "flag below cosched %.2f)",
                nproc(), steal_pct_, loadavg_1m(), median(cosched_), quantile(cosched_, 0),
                static_cast<unsigned long long>(flagged_), cosched_.size(), kCoschedFlag);
  note();
  std::snprintf(line, sizeof line, "failed_ratio: %.6g (%llu failed / %llu attempted calls)",
                attempted_ == 0 ? 0.0 : static_cast<double>(failed_) / static_cast<double>(attempted_),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
  note();
  std::snprintf(line, sizeof line,
                "memory: peak_rss_mb=%.3f (resident; follows when glibc returns freed "
                "blocks, so not a gated metric), peak_heap_mb=%.3f",
                peak_rss_mb(), peak_heap_mb());
  note();
  std::string reps;
  for (double ns : setup_ns_) reps += " " + std::to_string(ns / 1e9);
  res.notes.push_back("setup repetitions (s):" + reps);
  std::snprintf(line, sizeof line,
                "calls: pooled tree p50=%.1f us p99=%.1f us (%zu calls); cold tree p50=%.1f us "
                "(%zu calls); std::sort p50=%.3f ms; pmerge p50=%.3f ms",
                quantile(call_ns_, 0.5) / 1e3, quantile(call_ns_, 0.99) / 1e3, call_ns_.size(),
                quantile(cold_ns_, 0.5) / 1e3, cold_ns_.size(), median(std_ns_) / 1e6,
                median(pmerge_ns_) / 1e6);
  note();
  for (std::size_t p = 0; p < kPathCount; ++p) {
    const auto& v = path_ns_[p];
    std::snprintf(line, sizeof line,
                  "rounds %s: p25=%.3f p50=%.3f p75=%.3f max=%.3f ms over %zu rounds",
                  path_name(static_cast<Path>(p)), quantile(v, 0.25) / 1e6,
                  quantile(v, 0.5) / 1e6, quantile(v, 0.75) / 1e6, quantile(v, 1) / 1e6,
                  v.size());
    note();
  }
  if (!crashed_.empty()) {
    std::snprintf(line, sizeof line,
                  "faults: %zu faulted t=4 calls, crashed_workers p50=%.0f (plan schedules %u; "
                  "%llu calls fired fewer), completed_workers p50=%.0f, own_steps_ratio "
                  "max=%.4f",
                  crashed_.size(), median(crashed_), kScheduledCrashes,
                  static_cast<unsigned long long>(missed_crashes_), median(completed_),
                  own_steps_ratio_);
    note();
  }
  if (!cfg_.trace) return res;

  // Per-layer metrics: medians over traced rounds unless stated otherwise;
  // a layer the workload does not exercise reads 0 with 0 samples.
  for (const MetricName& m : per_layer_names()) res.per_layer.push_back({m.name, m.unit, 0, 0});
  auto& pl = res.per_layer;
  for (const auto& [name, series] : layer_) set_metric(pl, name, median(series), series.size());
  set_metric(pl, "core.sort.cpu_ms", median(cpu_ms_), cpu_ms_.size());
  set_metric(pl, "core.sort.cosched_p50", median(cosched_), cosched_.size());
  set_metric(pl, "core.sort.cosched_min", quantile(cosched_, 0), cosched_.size());
  set_metric(pl, "core.sort.nivcsw", median(nivcsw_), nivcsw_.size());
  set_metric(pl, "call_us_p50", quantile(call_ns_, 0.5) / 1e3, call_ns_.size());
  set_metric(pl, "call_us_p99", quantile(call_ns_, 0.99) / 1e3, call_ns_.size());
  set_metric(pl, "cold_call_us_p50", quantile(cold_ns_, 0.5) / 1e3, cold_ns_.size());

  const std::uint64_t runs = pool1_.runs - pool0_.runs;
  const std::uint64_t caller_only = pool1_.caller_only_runs - pool0_.caller_only_runs;
  const std::uint64_t woken = runs - caller_only;
  set_metric(pl, "pool.caller_only_share",
             runs == 0 ? 0 : static_cast<double>(caller_only) / static_cast<double>(runs), runs);
  set_metric(pl, "pool.wake_us",
             woken == 0 ? 0
                        : static_cast<double>(pool1_.wake_ns - pool0_.wake_ns) /
                              static_cast<double>(woken) / 1e3,
             woken);
  set_metric(pl, "pool.arena_grow_events",
             static_cast<double>(pool1_.arena_grow_events - pool0_.arena_grow_events), runs);
  set_metric(pl, "pool.arena_held_mb", static_cast<double>(pool1_.arena_held_bytes) / (1 << 20),
             runs);
  set_metric(pl, "pool.bypass_runs", static_cast<double>(pool1_.bypass_runs - pool0_.bypass_runs),
             runs);

  set_metric(pl, "runtime.own_steps_ratio", own_steps_ratio_, crashed_.size());

  const double std_ms = median(std_ns_) / 1e6;
  const double pm_ms = median(pmerge_ns_) / 1e6;
  set_metric(pl, "baselines.std_sort_ms_p50", std_ms, rounds);
  set_metric(pl, "baselines.pmerge_ms_p50", pm_ms, rounds);
  const double keys = static_cast<double>(round_inputs(1).size() * w_.n);
  const double gap_t1 = std_ms == 0 ? 0 : path_ms(Path::kPartitionT1) / std_ms;
  const double gap_pm = pm_ms == 0 ? 0 : path_ms(Path::kPartition) / pm_ms;
  set_metric(pl, "gap.partition_t1_vs_std_sort", gap_t1, rounds);
  set_metric(pl, "gap.partition_vs_pmerge", gap_pm, rounds);
  std::snprintf(line, sizeof line,
                "gaps, all over %.0f keys per round: partition_t1 %.3f ms vs std::sort %.3f ms "
                "= %.3fx; partition %.3f ms vs pmerge %.3f ms = %.3fx",
                keys, path_ms(Path::kPartitionT1), std_ms, gap_t1, path_ms(Path::kPartition),
                pm_ms, gap_pm);
  note();

  for (std::size_t p = 0; p < kPathCount; ++p) {
    const char* name = path_name(static_cast<Path>(p));
    const double untraced = median(path_ns_[p]);
    const double traced = median(traced_path_ns_[p]);
    set_metric(pl, std::string("telemetry.overhead_pct.") + name,
               untraced == 0 ? 0 : (traced / untraced - 1) * 100, traced_path_ns_[p].size());
    std::snprintf(line, sizeof line,
                  "accounting %s: (phase critical paths + unaccounted) / traced wall = %.3f",
                  name, median(accounted_[p]));
    note();
  }
  set_metric(pl, "host.flagged_calls", static_cast<double>(flagged_), cosched_.size());
  set_metric(pl, "exp.gen_s", median(gen_ns_) / 1e9, gen_ns_.size());

  if (!cfg_.trace_path.empty()) {
    std::string err;
    if (!log_.write_chrome_trace(cfg_.trace_path, &err)) {
      res.notes.push_back("trace: " + err);
    } else {
      res.notes.push_back("trace: " + std::to_string(log_.spans().size()) + " spans of " +
                          std::to_string(std::min(traced_rounds_, kTraceRoundsKept)) +
                          " traced rounds written to " + cfg_.trace_path);
      res.notes.push_back("self time by span name (ms): count total self");
      for (const auto& row : log_.self_times()) {
        std::snprintf(line, sizeof line, "  %-28s %8llu %12.3f %12.3f", row.name.c_str(),
                      static_cast<unsigned long long>(row.count), row.total_ms, row.self_ms);
        note();
      }
    }
  }
  return res;
}

}  // namespace

const char* path_name(Path p) {
  switch (p) {
    case Path::kTree: return "tree";
    case Path::kPartition: return "partition";
    case Path::kLc: return "lc";
    case Path::kPartitionT1: return "partition_t1";
  }
  return "?";
}

const char* entry_name(Entry e) {
  switch (e) {
    case Entry::kCold: return "cold";
    case Entry::kPooled: return "pooled";
    case Entry::kFaulted: return "faulted";
  }
  return "?";
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"bulk", std::uint64_t{1} << 20, {Dist::kUniform}, 0, Entry::kCold, false, Entry::kCold},
      // The cold t=4 calls are not in the path metrics here: at 2^12 keys
      // they are dominated by waking four vCPUs, and their per-run median
      // follows the host's steal time (cold_call_us_p50 reports them).
      {"small-stream", std::uint64_t{1} << 12, {Dist::kUniform}, 64, Entry::kPooled, true,
       Entry::kCold},
      {"skewed", std::uint64_t{1} << 15,
       {Dist::kUniform, Dist::kSorted, Dist::kReversed, Dist::kOrganPipe, Dist::kFewDistinct},
       0, Entry::kPooled, false, Entry::kPooled},
      {"faulted", std::uint64_t{1} << 18, {Dist::kUniform}, 0, Entry::kFaulted, false,
       Entry::kFaulted},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::vector<MetricName>& end_to_end_names() {
  static const std::vector<MetricName> names = {
      {"setup_s", "s"},          {"melem_per_s", "Mkeys/s"},
      {"tree_ms_p50", "ms"},     {"partition_ms_p50", "ms"},
      {"lc_ms_p50", "ms"},       {"partition_t1_ms_p50", "ms"},
      {"peak_heap_mb", "MiB"},
  };
  return names;
}

const std::vector<MetricName>& per_layer_names() {
  static const std::vector<MetricName> names = [] {
    std::vector<MetricName> v = {
        {"core.sort.cpu_ms", "ms"},
        {"core.sort.cosched_p50", "ratio"},
        {"core.sort.cosched_min", "ratio"},
        {"core.sort.nivcsw", "count"},
        {"call_us_p50", "us"},
        {"call_us_p99", "us"},
        {"cold_call_us_p50", "us"},
        {"pool.caller_only_share", "ratio"},
        {"pool.wake_us", "us"},
        {"pool.arena_grow_events", "count"},
        {"pool.arena_held_mb", "MiB"},
        {"pool.bypass_runs", "count"},
    };
    // Engine phases: critical path (_ms, the maximum over workers) and the
    // sum over workers (_busy_ms; the same thing at t=1).
    for (Path p : {Path::kTree, Path::kPartition, Path::kLc, Path::kPartitionT1}) {
      const std::string pre = std::string("engine.") + path_name(p) + ".";
      for (const PhaseName& ph : phases_of(p)) {
        v.push_back({pre + ph.name + "_ms", "ms"});
        if (p != Path::kPartitionT1) v.push_back({pre + ph.name + "_busy_ms", "ms"});
      }
      v.push_back({pre + "wall_ms", "ms"});
      v.push_back({pre + "unaccounted_ms", "ms"});
    }
    const std::vector<MetricName> rest = {
        {"engine.seq_block_repeat_ratio", "ratio"},
        {"build.tree_depth", "count"},
        {"build.max_build_iters", "count"},
        {"build.descent_steps_per_key", "ratio"},
        {"workalloc.claims", "count"},
        {"workalloc.probes_per_claim", "ratio"},
        {"lowcontention.fat_hit_ratio", "ratio"},
        {"lowcontention.backoff_spins", "count"},
        {"lowcontention.probes", "count"},
        {"lowcontention.burst_visits", "count"},
        {"leaf.blocks", "count"},
        {"leaf.heapsorts", "count"},
        {"leaf.swaps_per_key", "ratio"},
        {"partition.splitter_samples", "count"},
        {"runtime.own_steps_ratio", "ratio"},
        {"baselines.std_sort_ms_p50", "ms"},
        {"baselines.pmerge_ms_p50", "ms"},
        {"gap.partition_t1_vs_std_sort", "ratio"},
        {"gap.partition_vs_pmerge", "ratio"},
        {"telemetry.overhead_pct.tree", "%"},
        {"telemetry.overhead_pct.partition", "%"},
        {"telemetry.overhead_pct.lc", "%"},
        {"telemetry.overhead_pct.partition_t1", "%"},
        {"host.flagged_calls", "count"},
        {"exp.gen_s", "s"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return names;
}

Result run(const Config& cfg) { return Runner(cfg).run(); }

}  // namespace perfbench
