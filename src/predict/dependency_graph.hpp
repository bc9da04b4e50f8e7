// Dependency-graph predictor (Padmanabhan & Mogul, SIGCOMM CCR 1996).
//
// The server-side web-prefetching scheme the paper cites as related work
// [9]: a node per item, an arc a -> b weighted by how often b was accessed
// within a lookahead window of w requests after a. The predicted P for the
// next access is the normalized arc weight out of the current item. Arc
// weights live in a sparse SuccessorCounts table (O(n + distinct arcs)).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "predict/predictor.hpp"
#include "predict/successor_counts.hpp"

namespace skp {

class DependencyGraph final : public Predictor {
 public:
  // `window` = the lookahead window w (>= 1). window == 1 degenerates to a
  // first-order Markov predictor without smoothing.
  DependencyGraph(std::size_t n, std::size_t window = 4);

  void observe(ItemId item) override;
  void predict_into(std::vector<double>& out) const override;
  std::size_t n_items() const override { return n_; }
  void reset() override;
  std::size_t footprint_bytes() const noexcept override {
    return weight_.footprint_bytes() +
           accesses_.capacity() * sizeof(std::uint64_t);
  }

  // Arc weight a -> b (diagnostics).
  std::uint64_t arc(ItemId a, ItemId b) const;
  // Probability attached to arc a -> b (weight / accesses of a).
  double arc_probability(ItemId a, ItemId b) const;

 private:
  std::size_t n_;
  std::size_t window_;
  SuccessorCounts weight_;               // from -> to
  std::vector<std::uint64_t> accesses_;  // node access counts
  std::deque<ItemId> recent_;            // last `window_` items
  ItemId last_ = kNoItem;
};

}  // namespace skp
