// Order-k PPM (prediction by partial matching) predictor.
//
// Contexts of length k, k-1, ..., 0 are blended with PPM-C style escape
// weights: the order-m context predicts with its counts and escapes to
// order m-1 with probability (#distinct successors) / (total + #distinct).
// Vitter & Krishnan showed compression-style predictors of this family are
// asymptotically optimal for Markov sources, which is exactly the source
// the Fig. 7 experiment uses.
//
// Storage is arena-backed (util/arena.hpp): per order, an open-addressing
// key -> context-index map plus pooled 16-byte context headers and
// pooled 16-byte successor edges, replacing one unordered_map of ContextStats
// (itself holding an unordered_map) per context. The blend consumes each
// context's successor set through order-independent integer sums and a
// single per-symbol touch (exclusion flags), so predictions are
// bit-identical to the map-based predecessor regardless of edge order.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "predict/predictor.hpp"
#include "util/arena.hpp"

namespace skp {

class PpmPredictor final : public Predictor {
 public:
  PpmPredictor(std::size_t n, std::size_t order = 2);

  void observe(ItemId item) override;
  void predict_into(std::vector<double>& out) const override;
  std::size_t n_items() const override { return n_; }
  void reset() override;

  std::size_t order() const noexcept { return order_; }
  std::size_t footprint_bytes() const noexcept override {
    std::size_t total = contexts_.footprint_bytes() +
                        edges_.footprint_bytes() +
                        marginal_.capacity() * sizeof(std::uint64_t) +
                        excluded_.capacity() +
                        tables_.capacity() * sizeof(Key64Map);
    for (const Key64Map& t : tables_) total += t.footprint_bytes();
    return total;
  }

 private:
  static constexpr std::uint32_t kNull = PoolArena<int>::kNull;
  struct Context {
    std::uint32_t head = kNull;  // first successor edge
    std::uint64_t total = 0;
  };
  struct Edge {
    ItemId sym;
    std::uint32_t next;
    std::uint64_t count;
  };
  static_assert(sizeof(Edge) == 16);
  static constexpr std::size_t kMaxOrder = 8;

  // Encodes the last `len` observed items (len <= history_len_) into a
  // context key.
  std::uint64_t context_key(std::size_t len) const;

  std::size_t n_;
  std::size_t order_;
  std::vector<Key64Map> tables_;  // per order: context key -> contexts_ idx
  PoolArena<Context> contexts_;   // shared across orders
  PoolArena<Edge> edges_;
  std::vector<std::uint64_t> marginal_;
  std::uint64_t total_ = 0;
  // The last history_len_ <= order_ observed items, oldest first.
  std::array<ItemId, kMaxOrder> history_{};
  std::size_t history_len_ = 0;
  // Per-predict escape-exclusion flags, reused so predict_into never
  // allocates.
  mutable std::vector<char> excluded_;
};

}  // namespace skp
