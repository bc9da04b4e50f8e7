#include "predict/dependency_graph.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace skp {

DependencyGraph::DependencyGraph(std::size_t n, std::size_t window)
    : n_(n), window_(window), weight_(n) {
  SKP_REQUIRE(n > 0, "DependencyGraph over empty catalog");
  SKP_REQUIRE(window >= 1, "window must be >= 1");
  accesses_.assign(n, 0);
}

void DependencyGraph::observe(ItemId item) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < n_,
              "item " << item << " out of range");
  const auto i = static_cast<std::size_t>(item);
  // Every item accessed within the preceding window gains an arc to `item`.
  for (ItemId prev : recent_) {
    if (prev != item) weight_.add(static_cast<std::size_t>(prev), item);
  }
  ++accesses_[i];
  recent_.push_back(item);
  if (recent_.size() > window_) recent_.pop_front();
  last_ = item;
}

void DependencyGraph::predict_into(std::vector<double>& out) const {
  std::vector<double>& p = out;
  p.resize(n_);
  if (last_ == kNoItem || accesses_[static_cast<std::size_t>(last_)] == 0) {
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
    return;
  }
  const auto row = static_cast<std::size_t>(last_);
  std::uint64_t total = 0;
  weight_.for_each(row, [&](ItemId, std::uint64_t w) { total += w; });
  if (total == 0) {
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
    return;
  }
  // An absent arc's 0.0 / total is exactly 0.0.
  std::fill(p.begin(), p.end(), 0.0);
  weight_.for_each(row, [&](ItemId to, std::uint64_t w) {
    p[static_cast<std::size_t>(to)] =
        static_cast<double>(w) / static_cast<double>(total);
  });
}

void DependencyGraph::reset() {
  weight_.clear();
  std::fill(accesses_.begin(), accesses_.end(), 0);
  recent_.clear();
  last_ = kNoItem;
}

std::uint64_t DependencyGraph::arc(ItemId a, ItemId b) const {
  SKP_REQUIRE(a >= 0 && static_cast<std::size_t>(a) < n_, "arc from");
  SKP_REQUIRE(b >= 0 && static_cast<std::size_t>(b) < n_, "arc to");
  return weight_.count(static_cast<std::size_t>(a), b);
}

double DependencyGraph::arc_probability(ItemId a, ItemId b) const {
  const auto w = arc(a, b);
  const auto acc = accesses_[static_cast<std::size_t>(a)];
  return acc ? static_cast<double>(w) / static_cast<double>(acc) : 0.0;
}

}  // namespace skp
