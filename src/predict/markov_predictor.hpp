// First-order Markov predictor with Laplace smoothing.
//
// Transition counts live in a sparse SuccessorCounts table, so a session
// pays for the transitions it has seen, not for n^2 counters.
#pragma once

#include <vector>

#include "predict/predictor.hpp"
#include "predict/successor_counts.hpp"

namespace skp {

class MarkovPredictor final : public Predictor {
 public:
  // `laplace` > 0 smooths unseen transitions; smaller values trust the
  // counts more aggressively.
  explicit MarkovPredictor(std::size_t n, double laplace = 0.1);

  void observe(ItemId item) override;
  void predict_into(std::vector<double>& out) const override;
  std::size_t n_items() const override { return n_; }
  void reset() override;
  std::size_t footprint_bytes() const noexcept override {
    return counts_.footprint_bytes() +
           (row_total_.capacity() + marginal_.capacity()) *
               sizeof(std::uint64_t);
  }

  // Raw transition count prev -> next (tests / diagnostics).
  std::uint64_t count(ItemId prev, ItemId next) const;
  ItemId last_item() const noexcept { return last_; }

 private:
  std::size_t n_;
  double laplace_;
  SuccessorCounts counts_;  // prev -> next
  std::vector<std::uint64_t> row_total_;
  std::vector<std::uint64_t> marginal_;  // unconditioned access counts
  std::uint64_t total_ = 0;
  ItemId last_ = kNoItem;
};

}  // namespace skp
