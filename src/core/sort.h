// Public API of the wait-free sorter.
//
//   std::vector<std::uint64_t> v = ...;
//   wfsort::sort(std::span<std::uint64_t>(v));                  // defaults
//   wfsort::sort(std::span(v), {.threads = 8,
//                               .variant = wfsort::Variant::kLowContention});
//
// The call blocks until the array is sorted.  Internally P workers execute
// the paper's three phases — the calling thread as worker 0 plus P-1
// transient threads; every phase is wait-free, so the sort completes as
// long as at least one worker keeps running — the fault-injection entry
// point sort_with_faults() (and the SortSession API in session.h)
// demonstrates exactly that.  Every entry point here and in pool.h is a
// thin wrapper over one driver (core/detail/driver.h).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/check.h"
#include "core/detail/driver.h"
#include "core/detail/engine.h"
#include "core/options.h"
#include "runtime/fault_plan.h"

namespace wfsort {

// Sort under a fault plan (crashes / page-fault sleeps injected into chosen
// workers).  Returns true if the sort completed — i.e. at least one worker
// survived; on false `data` is untouched.  This is the wait-freedom
// experiment harness (E9).
template <typename T, typename Compare = std::less<T>>
bool sort_with_faults(std::span<T> data, const Options& opts, runtime::FaultPlan& plan,
                      SortStats* stats = nullptr, Compare cmp = Compare{}) {
  detail::Engine<T, Compare> engine(data, cmp, opts);
  return detail::drive(engine, opts, &plan, detail::ThreadLauncher{}, stats);
}

// Sort `data` in place.  `stats`, if given, receives per-run diagnostics.
// The same run as sort_with_faults without a plan, so it cannot fail.
template <typename T, typename Compare = std::less<T>>
void sort(std::span<T> data, const Options& opts = {}, SortStats* stats = nullptr,
          Compare cmp = Compare{}) {
  detail::Engine<T, Compare> engine(data, cmp, opts);
  detail::drive(engine, opts, nullptr, detail::ThreadLauncher{}, stats);
}

// Compute the sorting permutation without moving the data: perm[rank] is
// the index of the element with that rank (i.e. data[perm[0]] <= ... <=
// data[perm[n-1]], ties by index).  Useful when elements are heavyweight or
// must stay in place; runs the same wait-free phases through the same
// driver as sort() — stats and the live monitor included — skipping only
// the final copy-back.
template <typename T, typename Compare = std::less<T>>
std::vector<std::uint32_t> sort_permutation(std::span<const T> data,
                                            const Options& opts = {},
                                            SortStats* stats = nullptr,
                                            Compare cmp = Compare{}) {
  // The engine never writes the input: copy-back is disabled below and the
  // const_cast span is only a formality of its (normally in-place) interface.
  std::span<T> mutable_view(const_cast<T*>(data.data()), data.size());
  detail::Engine<T, Compare> engine(mutable_view, cmp, opts,
                                    /*assemble_into_data=*/false);
  const bool ok =
      detail::drive(engine, opts, nullptr, detail::ThreadLauncher{}, stats);
  WFSORT_CHECK(ok);
  std::vector<std::uint32_t> perm(data.size());
  engine.permutation(perm);
  return perm;
}

}  // namespace wfsort
