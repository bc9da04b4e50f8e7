#include "predict/lz78_predictor.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace skp {

Lz78Predictor::Lz78Predictor(std::size_t n) : n_(n) {
  SKP_REQUIRE(n > 0, "Lz78Predictor over empty catalog");
  nodes_.emplace_back();  // root
  marginal_.assign(n, 0);
}

Lz78Predictor::Edge* Lz78Predictor::find_edge(Node& node, ItemId sym) {
  for (std::uint32_t e = node.head; e != kNull; e = edges_[e].next) {
    if (edges_[e].sym == sym) return &edges_[e];
  }
  return nullptr;
}

const Lz78Predictor::Edge* Lz78Predictor::find_edge(const Node& node,
                                                    ItemId sym) const {
  for (std::uint32_t e = node.head; e != kNull; e = edges_[e].next) {
    if (edges_[e].sym == sym) return &edges_[e];
  }
  return nullptr;
}

void Lz78Predictor::observe(ItemId item) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < n_,
              "item " << item << " out of range");
  Node& cur = nodes_[current_];
  ++cur.total;
  ++marginal_[static_cast<std::size_t>(item)];
  ++total_;

  if (Edge* edge = find_edge(cur, item)) {
    ++edge->count;
    current_ = edge->child;
    ++depth_;
    return;
  }
  // New phrase: grow the tree by one node and one edge, restart at the
  // root (LZ78). The edge is appended at the list head; since each
  // symbol is created exactly once per node, traversal still visits
  // every distinct successor exactly once.
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  Node& reloaded = nodes_[current_];  // emplace may have reallocated
  const std::uint32_t e =
      edges_.alloc(Edge{item, id, 1, reloaded.head});
  reloaded.head = e;
  ++reloaded.deg;
  current_ = 0;
  depth_ = 0;
  ++phrases_;
}

void Lz78Predictor::predict_into(std::vector<double>& out) const {
  std::vector<double>& p = out;
  p.assign(n_, 0.0);
  if (total_ == 0) {
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
    return;
  }
  // Order-0 backstop: smoothed marginal, computed where it is used.
  const double denom =
      static_cast<double>(total_) + static_cast<double>(n_);
  const auto base = [&](std::size_t i) {
    return (static_cast<double>(marginal_[i]) + 1.0) / denom;
  };

  const Node& cur = nodes_[current_];
  if (cur.total == 0) {
    for (std::size_t i = 0; i < n_; ++i) p[i] = base(i);
    return;
  }

  // PPM-C escape: distinct successors / (total + distinct). Each symbol
  // appears on exactly one edge, so the per-symbol assignment below is
  // iteration-order independent.
  const double distinct = static_cast<double>(cur.deg);
  const double esc = distinct / (static_cast<double>(cur.total) + distinct);
  for (std::uint32_t e = cur.head; e != kNull; e = edges_[e].next) {
    p[static_cast<std::size_t>(edges_[e].sym)] =
        (1.0 - esc) * static_cast<double>(edges_[e].count) /
        static_cast<double>(cur.total);
  }
  for (std::size_t i = 0; i < n_; ++i) {
    p[i] += esc * base(i);
  }
  // Normalize away fp residue.
  double sum = 0.0;
  for (const double x : p) sum += x;
  for (double& x : p) x /= sum;
}

void Lz78Predictor::reset() {
  nodes_.clear();
  nodes_.emplace_back();
  edges_.clear();
  current_ = 0;
  depth_ = 0;
  phrases_ = 0;
  std::fill(marginal_.begin(), marginal_.end(), 0);
  total_ = 0;
}

}  // namespace skp
