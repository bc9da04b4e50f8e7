#include "predict/ppm_predictor.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace skp {

namespace {

// Per-predict escape-exclusion flags. They die with the call, so every
// predictor on a thread reuses the thread's one buffer and predict_into
// never allocates once it has grown to the largest catalog.
std::vector<char>& thread_excluded() {
  thread_local std::vector<char> excluded;
  return excluded;
}

}  // namespace

PpmPredictor::PpmPredictor(std::size_t n, std::size_t order)
    : n_(n), order_(order) {
  SKP_REQUIRE(n > 0, "PpmPredictor over empty catalog");
  SKP_REQUIRE(order >= 1 && order <= kMaxOrder, "order must be in [1, 8]");
  tables_.resize(order);
  marginal_.assign(n, 0);
}

std::uint64_t PpmPredictor::context_key(std::size_t len) const {
  // Base-(n+1) positional encoding of the last `len` items; 64 bits hold
  // order <= 8 over catalogs up to ~2^8 per symbol times n — for larger
  // catalogs collisions only blur counts, never break correctness. The
  // leading 1 also keeps every key nonzero, which Key64Map requires.
  std::uint64_t key = 1;  // leading 1 distinguishes lengths
  const std::uint64_t base = static_cast<std::uint64_t>(n_) + 1;
  for (std::size_t i = history_len_ - len; i < history_len_; ++i) {
    key = key * base + static_cast<std::uint64_t>(history_[i]) + 1;
  }
  return key;
}

void PpmPredictor::observe(ItemId item) {
  SKP_REQUIRE(item >= 0 && static_cast<std::size_t>(item) < n_,
              "item " << item << " out of range");
  // Update every context length that currently has enough history.
  for (std::size_t len = 1; len <= history_len_; ++len) {
    const std::uint64_t key = context_key(len);
    Key64Map& table = tables_[len - 1];
    std::uint32_t ctx = table.find(key);
    if (ctx == Key64Map::kNotFound) {
      ctx = contexts_.alloc(Context{});
      table.insert(key, ctx);
    }
    Context& stats = contexts_[ctx];
    ++stats.total;
    bool found = false;
    for (std::uint32_t e = stats.head; e != kNull; e = edges_[e].next) {
      if (edges_[e].sym == item) {
        ++edges_[e].count;
        found = true;
        break;
      }
    }
    if (!found) {
      stats.head = edges_.alloc(Edge{item, stats.head, 1});
    }
  }
  ++marginal_[static_cast<std::size_t>(item)];
  ++total_;
  if (history_len_ == order_) {
    std::copy(history_.begin() + 1, history_.begin() + history_len_,
              history_.begin());
    --history_len_;
  }
  history_[history_len_++] = item;
}

void PpmPredictor::predict_into(std::vector<double>& out) const {
  std::vector<double>& p = out;
  p.assign(n_, 0.0);
  double remaining = 1.0;  // probability mass not yet claimed (escapes)
  std::vector<char>& excluded = thread_excluded();
  excluded.assign(n_, 0);

  for (std::size_t len = history_len_; len >= 1; --len) {
    const std::uint64_t key = context_key(len);
    const std::uint32_t ctx = tables_[len - 1].find(key);
    if (ctx == Key64Map::kNotFound || contexts_[ctx].total == 0) continue;
    const Context& stats = contexts_[ctx];
    // PPM-C: escape weight = distinct successors / (total + distinct),
    // computed over not-yet-excluded symbols. Integer sums over the edge
    // list are iteration-order independent.
    std::uint64_t total = 0;
    std::uint64_t distinct = 0;
    for (std::uint32_t e = stats.head; e != kNull; e = edges_[e].next) {
      if (excluded[static_cast<std::size_t>(edges_[e].sym)]) continue;
      total += edges_[e].count;
      ++distinct;
    }
    if (total == 0) continue;
    const double denom = static_cast<double>(total + distinct);
    for (std::uint32_t e = stats.head; e != kNull; e = edges_[e].next) {
      const auto sym = static_cast<std::size_t>(edges_[e].sym);
      if (excluded[sym]) continue;
      p[sym] += remaining * static_cast<double>(edges_[e].count) / denom;
      excluded[sym] = 1;
    }
    remaining *= static_cast<double>(distinct) / denom;
  }

  // Order-0 / uniform backstop over not-yet-excluded symbols.
  std::uint64_t marg_total = 0;
  std::size_t open = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!excluded[i]) {
      marg_total += marginal_[i];
      ++open;
    }
  }
  if (open > 0) {
    for (std::size_t i = 0; i < n_; ++i) {
      if (excluded[i]) continue;
      const double base =
          marg_total > 0
              ? static_cast<double>(marginal_[i]) /
                    static_cast<double>(marg_total)
              : 1.0 / static_cast<double>(open);
      // Blend counts with a uniform floor so unseen items keep mass.
      const double uniform = 1.0 / static_cast<double>(open);
      p[i] += remaining * (0.9 * base + 0.1 * uniform);
    }
  } else {
    // Everything claimed at higher orders; renormalize below handles it.
  }

  // Normalize (escape arithmetic can leave tiny residue).
  double sum = 0.0;
  for (double x : p) sum += x;
  if (sum <= 0.0) {
    std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
    return;
  }
  for (double& x : p) x /= sum;
}

void PpmPredictor::reset() {
  for (auto& t : tables_) t.clear();
  contexts_.clear();
  edges_.clear();
  std::fill(marginal_.begin(), marginal_.end(), 0);
  total_ = 0;
  history_len_ = 0;
}

}  // namespace skp
