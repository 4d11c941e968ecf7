// RunArena — the recycled storage substrate behind SortPool (ISSUE 10).
//
// A sorting run allocates a deterministic sequence of large flat arrays
// whose sizes depend only on (n, Options): the PackedNode tree, the WAT
// done-bits, partition scratch, the LC fat-tree planes, copy-back chunk
// flags.  RunArena exploits that determinism with SLOT MATCHING: the i-th
// request of a run is served from the i-th retained buffer.  If the
// retained buffer is large enough the request costs zero heap traffic
// (reuse); otherwise the slot is reallocated to the new high-water mark
// (grow).  begin_run() rewinds the cursor; nothing is ever freed between
// runs, so a pool that has seen its largest input performs steady-state
// submits with ZERO heap allocations (test_pool.cpp proves it with a
// counting operator-new hook).
//
// The arena is single-owner per run: one thread calls begin_run() and all
// make<T>() calls happen-before the workers start (the Engine constructor
// runs on the submitting thread).  Workers only ever touch the returned
// storage, never the arena itself, so the arena needs no synchronization
// of its own — SortPool's per-variant busy flag serializes runs.
//
// Storage is always 64-byte aligned (cache-line isolation is part of the
// contract: PackedNode and the telemetry scratch rely on it).  Only
// trivially-destructible element types are supported — buffers are
// recycled by re-running placement construction, never by running
// destructors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace wfsort {

class RunArena {
 public:
  static constexpr std::size_t kAlign = 64;

  struct Totals {
    std::uint64_t runs = 0;         // begin_run() calls
    std::uint64_t reuse_bytes = 0;  // bytes served from retained buffers
    std::uint64_t grow_events = 0;  // slots (re)allocated to a larger size
    std::uint64_t held_bytes = 0;   // current retained footprint
  };

  RunArena() = default;
  RunArena(const RunArena&) = delete;
  RunArena& operator=(const RunArena&) = delete;

  ~RunArena() {
    for (Slot& s : slots_) {
      ::operator delete(s.ptr, std::align_val_t{kAlign});
    }
  }

  // Rewind the slot cursor; retained buffers stay allocated and are handed
  // back out in the same order the previous run requested them.
  void begin_run() {
    cursor_ = 0;
    ++totals_.runs;
  }

  // Raw 64-byte-aligned storage.  Reuses the retained buffer at the current
  // slot when it is large enough, grows it otherwise.
  void* raw(std::size_t bytes) {
    if (bytes == 0) bytes = 1;
    if (cursor_ == slots_.size()) slots_.push_back(Slot{});
    Slot& s = slots_[cursor_++];
    if (s.bytes >= bytes) {
      totals_.reuse_bytes += bytes;
      return s.ptr;
    }
    ::operator delete(s.ptr, std::align_val_t{kAlign});
    totals_.held_bytes -= s.bytes;
    s.ptr = ::operator new(bytes, std::align_val_t{kAlign});
    advise_huge_pages(s.ptr, bytes);
    s.bytes = bytes;
    totals_.held_bytes += bytes;
    ++totals_.grow_events;
    return s.ptr;
  }

  // An array of `count` default-initialized T: C++20 atomics
  // value-initialize their payload in their default constructor, trivial
  // types stay uninitialized until the caller writes them.
  template <typename T>
  T* make(std::size_t count) {
    static_assert(alignof(T) <= kAlign, "raise RunArena::kAlign");
    return construct_each<T>(raw(count * sizeof(T)), count, default_construct<T>);
  }

  // Construct element i of the `count` T at `storage` in place with
  // `construct(&element, i)`: one writing pass, whatever the storage held
  // before.  The one construction loop behind make() and ArenaArray.
  template <typename T, typename Construct>
  static T* construct_each(void* storage, std::size_t count,
                           const Construct& construct) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is recycled without running destructors");
    T* p = static_cast<T*>(storage);
    for (std::size_t i = 0; i < count; ++i) construct(static_cast<void*>(p + i), i);
    return p;
  }

  template <typename T>
  static void default_construct(void* p, std::size_t /*i*/) {
    ::new (p) T;
  }

  // A single constructed object.  The caller is responsible for calling the
  // destructor before the next begin_run() if ~T matters (Engine does this
  // for LcShared / PartitionShared, whose members release thread handles —
  // their bulk arrays live in this same arena and need no teardown).
  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(alignof(T) <= kAlign, "raise RunArena::kAlign");
    void* p = raw(sizeof(T));
    return ::new (p) T(std::forward<Args>(args)...);
  }

  const Totals& totals() const { return totals_; }

 private:
  // A run's big arrays — the node records above all — are read at random:
  // phase 1 inserts in a scattered pseudo-random order, so every descent
  // walks records spread over the whole array, and with 4 KiB pages a large
  // sort misses the TLB at nearly every step.  Ask for transparent huge pages
  // over the 2 MiB-aligned interior of a fresh block, before anything touches
  // it.  Purely advisory: where the kernel declines, only speed changes.
  static void advise_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__)
    constexpr std::uintptr_t kHuge = std::uintptr_t{2} << 20;
    const auto lo = (reinterpret_cast<std::uintptr_t>(p) + kHuge - 1) & ~(kHuge - 1);
    const auto hi = (reinterpret_cast<std::uintptr_t>(p) + bytes) & ~(kHuge - 1);
    if (hi > lo) ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
    (void)p;
    (void)bytes;
#endif
  }

  struct Slot {
    void* ptr = nullptr;
    std::size_t bytes = 0;
  };

  std::vector<Slot> slots_;
  std::size_t cursor_ = 0;
  Totals totals_{};
};

// A flat array that either owns its storage (the cold one-shot path and
// direct construction in tests) or borrows it from a RunArena (the pooled
// path).  Same element semantics either way; the structures built on top
// (TreeState, Wat, FatTree, …) are oblivious to the choice.
template <typename T>
class ArenaArray {
 public:
  ArenaArray() = default;

  // `count` default-initialized T (RunArena::make<T>(count) semantics).
  explicit ArenaArray(std::size_t count)
      : ArenaArray(count, nullptr, RunArena::default_construct<T>) {}
  ArenaArray(std::size_t count, RunArena& arena)
      : ArenaArray(count, &arena, RunArena::default_construct<T>) {}

  // `count` T, element i constructed in place by `construct(storage, i)`,
  // in `arena` storage or, when `arena` is null, in storage of its own.
  template <typename Construct>
  ArenaArray(std::size_t count, RunArena* arena, const Construct& construct)
      : count_(count) {
    static_assert(alignof(T) <= RunArena::kAlign, "raise RunArena::kAlign");
    if (count == 0) return;
    const std::size_t bytes = count * sizeof(T);
    if (arena == nullptr) {
      owned_.reset(::operator new(bytes, std::align_val_t{RunArena::kAlign}));
    }
    ptr_ = RunArena::construct_each<T>(
        arena != nullptr ? arena->raw(bytes) : owned_.get(), count, construct);
  }

  ArenaArray(ArenaArray&&) noexcept = default;
  ArenaArray& operator=(ArenaArray&&) noexcept = default;

  T* data() { return ptr_; }
  const T* data() const { return ptr_; }
  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  T& operator[](std::size_t i) { return ptr_[i]; }
  const T& operator[](std::size_t i) const { return ptr_[i]; }

  T* begin() { return ptr_; }
  T* end() { return ptr_ + count_; }
  const T* begin() const { return ptr_; }
  const T* end() const { return ptr_ + count_; }

 private:
  struct Free {
    void operator()(void* p) const {
      ::operator delete(p, std::align_val_t{RunArena::kAlign});
    }
  };
  std::unique_ptr<void, Free> owned_;
  T* ptr_ = nullptr;
  std::size_t count_ = 0;
};

}  // namespace wfsort
