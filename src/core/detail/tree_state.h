// Shared state of one sort: the pivot tree threaded through the input.
//
// Mirrors Figure 3 of the paper, but in *packed record* form rather than the
// paper's (and our seed's) parallel arrays: each element owns one 32-byte
// PackedNode holding both child slots, the subtree size, the final place
// (1-based rank; 0 = not yet known), the phase-3 completion flag and a
// private copy of the key — the paper's per-element state and nothing
// more, two records to a cache line.  A descent step, a summation visit or
// a placement visit therefore costs ONE cache miss where the
// structure-of-arrays layout cost up to four (child array, size array, place
// array, key array), and place emission reads the key from the line the
// visit already loaded.  This is a deliberate, documented deviation from the
// paper's in-array threading (docs/native_engine.md); the algorithm and all
// of its invariants are unchanged.  Index fields are 32-bit (Idx): the
// Engine CHECKs n < kMaxElements before it allocates anything.
//
// Keys are copied into the records at construction and never modified while
// the sort runs, which also makes the caller's buffer write-only for the
// rest of the sort — the engine exploits that to overlap output copy-back
// with straggling workers.  The sorted result is assembled into `out`
// (indexed by rank) and copied back after at least one worker finished.
//
// The partition phase 1 builds no tree: its TreeState is constructed
// without records (only `out`, the comparator and the root), and the path
// keeps its own dense key copy and rank-to-index array
// (partition_phase.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/arena.h"
#include "common/check.h"

namespace wfsort::detail {

// Element index as stored in the records (child slots, sizes, places).
// Accessors take and return std::int64_t and narrow here, in one place.
using Idx = std::int32_t;
inline constexpr Idx kNoIdx = -1;
// Every entry point sorts fewer elements than this (Engine construction
// CHECKs it), so any index, size or 1-based place fits an Idx.
inline constexpr std::uint64_t kMaxElements = std::uint64_t{1} << 31;

enum Side : int { kSmall = 0, kBig = 1 };

// One pivot-tree node.  32-byte aligned: a key of up to 15 bytes keeps the
// record inside one half line (two records per 64-byte line, never
// straddling one); larger keys pad to the next multiple of 32 bytes.
template <typename Key>
struct alignas(32) PackedNode {
  // A record in its initial state: both children EMPTY, size and place
  // unknown, not placed, holding its element's key.
  explicit PackedNode(const Key& k)
      : child{kNoIdx, kNoIdx}, size(0), place(0), key(k), place_done(0) {}

  std::atomic<Idx> child[2];             // kNoIdx = EMPTY; write-once
  std::atomic<Idx> size;                 // 0 = unknown
  std::atomic<Idx> place;                // 0 = unknown, else 1-based rank
  Key key;                               // immutable copy, set before workers start
  std::atomic<std::uint8_t> place_done;  // PrunePlaced::kDone flag
};

// Layout guard: a field added later must fail the build, not silently
// double the memory every call touches.
static_assert(sizeof(PackedNode<std::uint64_t>) == 32,
              "PackedNode<uint64_t> must stay one half cache line");

template <typename Key, typename Compare>
struct TreeState {
  static_assert(std::is_trivially_copyable_v<Key>,
                "the wait-free sorter assembles its output with atomic element "
                "stores; sort records must be trivially copyable (sort indices "
                "or pointers for heavyweight payloads)");

  std::span<const Key> keys;  // the caller's buffer; read only at construction
  Compare cmp;
  // Pivot-tree root element: 0 for the deterministic variant; the fat-tree
  // root chosen at runtime by the low-contention variant (every worker
  // stores the same value, so the atomic is only for data-race freedom).
  std::atomic<std::int64_t> root{0};

  ArenaArray<PackedNode<Key>> nodes;  // one record per element, or none
  ArenaArray<std::atomic<Key>> out;   // sorted result (index place-1)

  // Each record is built once, in place, in its initial state — one pass
  // over the records that writes every field, whatever recycled arena
  // memory held before.  `with_records = false` (the partition phase 1,
  // which builds no tree) skips the records entirely.
  // Records and output borrow `arena` storage; null (tests) means storage
  // of their own.
  TreeState(std::span<const Key> k, Compare c, RunArena* arena = nullptr,
            bool with_records = true)
      : keys(k),
        cmp(c),
        nodes(with_records ? k.size() : 0, arena,
              [k](void* p, std::size_t i) { ::new (p) PackedNode<Key>(k[i]); }),
        out(k.size(), arena, RunArena::default_construct<std::atomic<Key>>) {}

  std::int64_t n() const { return static_cast<std::int64_t>(keys.size()); }

  std::int64_t root_idx() const { return root.load(std::memory_order_acquire); }
  void set_root(std::int64_t r) { root.store(r, std::memory_order_release); }

  const Key& key_of(std::int64_t node) const {
    return nodes[static_cast<std::size_t>(node)].key;
  }

  // Strict order with index tie-breaking (the paper's "use an element's
  // index to break ties"), so all keys behave as if distinct.
  bool less(std::int64_t a, std::int64_t b) const {
    const Key& ka = key_of(a);
    const Key& kb = key_of(b);
    if (cmp(ka, kb)) return true;
    if (cmp(kb, ka)) return false;
    return a < b;
  }

  // Which child of `p` the descent of element `e` continues into.  Written
  // as an arithmetic use of the comparison result (not a select between two
  // code paths) so the compiler lowers the child choice to setcc + indexed
  // load — the descent's only unpredictable branch disappears into the
  // child[] index.  e != p (an element never descends through itself).
  Side descend_side(std::int64_t e, std::int64_t p) const {
    return static_cast<Side>(!less(e, p));
  }

  // True when the record array is small enough that batching one round of
  // descent compares into a SIMD call pays.  The batched kernel touches all
  // in-flight parent lines at one program point; when the records exceed
  // the fast cache levels that clustering un-hides the line latency the
  // round-robin interleave exists to overlap (measured on the bench host:
  // ~3% win at 1 MiB of records, 15–20% loss at 64 MiB), so the batch is
  // only used while the array fits comfortably in L2.
  bool simd_batch_descend() const {
    return static_cast<std::size_t>(n()) * sizeof(PackedNode<Key>) <=
           (std::size_t{1} << 20);
  }

  // Hint the hardware that `node`'s record is about to be visited.
  void prefetch(std::int64_t node) const {
    __builtin_prefetch(&nodes[static_cast<std::size_t>(node)], 0, 1);
  }

  std::int64_t child_of(std::int64_t node, Side s) const {
    return nodes[static_cast<std::size_t>(node)].child[s].load(std::memory_order_acquire);
  }
  // The phase-1 install (Figure 4's CAS): put `elem` into `node`'s EMPTY
  // child slot `s`.  On failure `occupant` receives the element that won
  // the slot.
  bool try_install(std::int64_t node, Side s, std::int64_t elem,
                   std::int64_t& occupant) {
    Idx expected = kNoIdx;
    if (nodes[static_cast<std::size_t>(node)].child[s].compare_exchange_strong(
            expected, static_cast<Idx>(elem), std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      return true;
    }
    occupant = expected;
    return false;
  }
  // An idempotent child store (the LC variant stitching the fat tree's
  // shape into the pivot tree: every worker writes the same value).
  void set_child(std::int64_t node, Side s, std::int64_t elem) {
    nodes[static_cast<std::size_t>(node)].child[s].store(static_cast<Idx>(elem),
                                                         std::memory_order_release);
  }
  std::int64_t size_of(std::int64_t node) const {
    return node == kNoIdx
               ? 0
               : nodes[static_cast<std::size_t>(node)].size.load(std::memory_order_acquire);
  }
  void set_size(std::int64_t node, std::int64_t s) {
    nodes[static_cast<std::size_t>(node)].size.store(static_cast<Idx>(s),
                                                     std::memory_order_release);
  }
  std::int64_t place_of(std::int64_t node) const {
    return nodes[static_cast<std::size_t>(node)].place.load(std::memory_order_acquire);
  }
  bool place_done_of(std::int64_t node) const {
    return nodes[static_cast<std::size_t>(node)].place_done.load(
               std::memory_order_acquire) != 0;
  }
  void mark_place_done(std::int64_t node) {
    nodes[static_cast<std::size_t>(node)].place_done.store(1, std::memory_order_release);
  }
  // Publish completion of a sequential block (see find_place_emit's
  // seq_cutoff).  The CAS only decides which of the concurrent duplicates
  // "won"; the work itself happened before the call and every competitor
  // wrote identical values, so losing is harmless.
  bool try_claim_place_done(std::int64_t node) {
    std::uint8_t expected = 0;
    return nodes[static_cast<std::size_t>(node)].place_done.compare_exchange_strong(
        expected, 1, std::memory_order_acq_rel, std::memory_order_acquire);
  }

  // Store the element's key at the output slot of its rank, then the rank.
  // The key read is free: the record line was loaded to compute the place.
  // Order matters: `out` is written BEFORE `place`, so any worker that
  // acquire-reads a non-zero place (or a completion flag released after it)
  // is also guaranteed to see the output slot — that is what lets finished
  // workers copy the output back while stragglers are still traversing.
  void emit(std::int64_t node, std::int64_t pl) {
    PackedNode<Key>& nd = nodes[static_cast<std::size_t>(node)];
    out[static_cast<std::size_t>(pl - 1)].store(nd.key, std::memory_order_release);
    nd.place.store(static_cast<Idx>(pl), std::memory_order_release);
  }

  // Post-run validation/diagnostics (single-threaded use).
  bool all_placed() const {
    for (std::int64_t i = 0; i < n(); ++i) {
      if (place_of(i) == 0) return false;
    }
    return true;
  }

  // The tree's depth by walking it.  A state without records (the
  // partition phase 1) holds the root alone: depth 1.
  std::uint32_t measure_depth() const {
    if (keys.empty()) return 0;
    if (nodes.empty()) return 1;
    std::uint32_t max_depth = 0;
    std::vector<std::pair<std::int64_t, std::uint32_t>> stack{{root_idx(), 1u}};
    while (!stack.empty()) {
      auto [node, d] = stack.back();
      stack.pop_back();
      if (node == kNoIdx) continue;
      max_depth = std::max(max_depth, d);
      stack.emplace_back(child_of(node, kSmall), d + 1);
      stack.emplace_back(child_of(node, kBig), d + 1);
    }
    return max_depth;
  }
};

}  // namespace wfsort::detail
