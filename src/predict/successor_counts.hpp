// Sparse per-source successor counts: the learned predictors' transition
// table.
//
// MarkovPredictor (a -> next) and DependencyGraph (a -> anything within
// the lookahead window) both count arcs between catalog items. A dense
// n x n count matrix costs n^2 * 8 bytes per session (80 KB at n = 100,
// 8 MB at n = 1000) although a session observes at most one arc per
// request. This table keeps, per source, a singly linked list of
// {to, next, count} edges in one PoolArena (util/arena.hpp) — the
// ChampSim Markov-prefetcher layout (markov_table[prev] -> {next, count})
// with exact, unbounded counts — so its size is O(n + distinct arcs)
// (DESIGN.md D10).
//
// Each (from, to) pair appears on at most one edge, so a consumer that
// assigns one value per listed successor gets the same result in any
// list order; that is what keeps the sparse predictors bit-identical to
// their dense predecessors.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/item.hpp"
#include "util/arena.hpp"

namespace skp {

class SuccessorCounts {
 public:
  explicit SuccessorCounts(std::size_t n) : head_(n, kNull) {}

  // Adds one to the arc from -> to.
  void add(std::size_t from, ItemId to) {
    for (std::uint32_t e = head_[from]; e != kNull; e = edges_[e].next) {
      if (edges_[e].to == to) {
        ++edges_[e].count;
        return;
      }
    }
    head_[from] = edges_.alloc(Edge{to, head_[from], 1});
  }

  std::uint64_t count(std::size_t from, ItemId to) const {
    for (std::uint32_t e = head_[from]; e != kNull; e = edges_[e].next) {
      if (edges_[e].to == to) return edges_[e].count;
    }
    return 0;
  }

  // Calls f(to, count) once per successor of `from` with a nonzero count.
  template <typename F>
  void for_each(std::size_t from, F&& f) const {
    for (std::uint32_t e = head_[from]; e != kNull; e = edges_[e].next) {
      f(edges_[e].to, edges_[e].count);
    }
  }

  void clear() {
    std::fill(head_.begin(), head_.end(), kNull);
    edges_.clear();
  }

  std::size_t footprint_bytes() const noexcept {
    return head_.capacity() * sizeof(std::uint32_t) +
           edges_.footprint_bytes();
  }

 private:
  static constexpr std::uint32_t kNull = PoolArena<int>::kNull;
  struct Edge {
    ItemId to;
    std::uint32_t next;  // next edge of the same source
    std::uint64_t count;
  };
  static_assert(sizeof(Edge) == 16);

  std::vector<std::uint32_t> head_;  // per source: first edge or kNull
  PoolArena<Edge> edges_;
};

}  // namespace skp
