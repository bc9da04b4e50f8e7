#include "predict/markov_predictor.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace skp {

MarkovPredictor::MarkovPredictor(std::size_t n, double laplace)
    : n_(n), laplace_(laplace), counts_(n) {
  SKP_REQUIRE(n > 0, "MarkovPredictor over empty catalog");
  SKP_REQUIRE(laplace > 0.0, "laplace must be positive");
  row_total_.assign(n, 0);
  marginal_.assign(n, 0);
}

void MarkovPredictor::observe(ItemId item) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < n_,
              "item " << item << " out of range");
  if (last_ != kNoItem) {
    const auto p = static_cast<std::size_t>(last_);
    counts_.add(p, item);
    ++row_total_[p];
  }
  ++marginal_[static_cast<std::size_t>(item)];
  ++total_;
  last_ = item;
}

void MarkovPredictor::predict_into(std::vector<double>& out) const {
  out.resize(n_);
  if (last_ == kNoItem || row_total_[static_cast<std::size_t>(last_)] == 0) {
    // No context yet: fall back to the (smoothed) marginal distribution.
    const double denom =
        static_cast<double>(total_) + laplace_ * static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      out[i] = (static_cast<double>(marginal_[i]) + laplace_) / denom;
    }
    return;
  }
  const auto row = static_cast<std::size_t>(last_);
  const double denom = static_cast<double>(row_total_[row]) +
                       laplace_ * static_cast<double>(n_);
  // An unseen successor's (0 + laplace) / denom is exactly laplace / denom,
  // so the fill is bit-equal to the count formula at a zero count.
  std::fill(out.begin(), out.end(), laplace_ / denom);
  counts_.for_each(row, [&](ItemId to, std::uint64_t c) {
    out[static_cast<std::size_t>(to)] =
        (static_cast<double>(c) + laplace_) / denom;
  });
}

void MarkovPredictor::reset() {
  counts_.clear();
  std::fill(row_total_.begin(), row_total_.end(), 0);
  std::fill(marginal_.begin(), marginal_.end(), 0);
  total_ = 0;
  last_ = kNoItem;
}

std::uint64_t MarkovPredictor::count(ItemId prev, ItemId next) const {
  SKP_REQUIRE(prev >= 0 && static_cast<std::size_t>(prev) < n_, "prev");
  SKP_REQUIRE(next >= 0 && static_cast<std::size_t>(next) < n_, "next");
  return counts_.count(static_cast<std::size_t>(prev), next);
}

}  // namespace skp
