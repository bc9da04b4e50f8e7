#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "predict/dependency_graph.hpp"
#include "predict/lz78_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/ppm_predictor.hpp"
#include "workload/markov_source.hpp"

namespace skp {
namespace {

double sum(const std::vector<double>& p) {
  double s = 0;
  for (double x : p) s += x;
  return s;
}

// All predictors must emit proper distributions at every point of a random
// observation stream.
template <typename P>
void check_distribution_invariant(P& pred, std::size_t n) {
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const auto p = pred.predict();
    EXPECT_EQ(p.size(), n);
    EXPECT_NEAR(sum(p), 1.0, 1e-9);
    for (double x : p) EXPECT_GE(x, 0.0);
    pred.observe(static_cast<ItemId>(rng.next_below(n)));
  }
}

TEST(MarkovPredictor, DistributionInvariant) {
  MarkovPredictor pred(8);
  check_distribution_invariant(pred, 8);
}

TEST(PpmPredictor, DistributionInvariant) {
  PpmPredictor pred(8, 3);
  check_distribution_invariant(pred, 8);
}

TEST(DependencyGraph, DistributionInvariant) {
  DependencyGraph pred(8, 3);
  check_distribution_invariant(pred, 8);
}

TEST(MarkovPredictor, ConstructionValidation) {
  EXPECT_THROW(MarkovPredictor(0), std::invalid_argument);
  EXPECT_THROW(MarkovPredictor(4, 0.0), std::invalid_argument);
}

TEST(MarkovPredictor, LearnsDeterministicChain) {
  // 0 -> 1 -> 2 -> 0 -> ...: after training, P(next | last) concentrates.
  MarkovPredictor pred(3, 0.01);
  for (int rep = 0; rep < 100; ++rep) {
    pred.observe(0);
    pred.observe(1);
    pred.observe(2);
  }
  pred.observe(0);
  const auto p = pred.predict();
  EXPECT_GT(p[1], 0.9);
}

TEST(MarkovPredictor, CountsExposed) {
  MarkovPredictor pred(3);
  pred.observe(0);
  pred.observe(1);
  pred.observe(0);
  EXPECT_EQ(pred.count(0, 1), 1u);
  EXPECT_EQ(pred.count(1, 0), 1u);
  EXPECT_EQ(pred.count(2, 0), 0u);
  EXPECT_EQ(pred.last_item(), 0);
}

TEST(MarkovPredictor, NoContextFallsBackToMarginal) {
  MarkovPredictor pred(4);
  const auto p = pred.predict();  // nothing observed: uniform smoothing
  for (double x : p) EXPECT_NEAR(x, 0.25, 1e-9);
}

TEST(MarkovPredictor, ResetForgets) {
  MarkovPredictor pred(3);
  pred.observe(0);
  pred.observe(1);
  pred.reset();
  EXPECT_EQ(pred.count(0, 1), 0u);
  EXPECT_EQ(pred.last_item(), kNoItem);
}

TEST(MarkovPredictor, OutOfRangeObservationThrows) {
  MarkovPredictor pred(3);
  EXPECT_THROW(pred.observe(3), std::invalid_argument);
  EXPECT_THROW(pred.observe(-1), std::invalid_argument);
}

TEST(PpmPredictor, ConstructionValidation) {
  EXPECT_THROW(PpmPredictor(0), std::invalid_argument);
  EXPECT_THROW(PpmPredictor(4, 0), std::invalid_argument);
  EXPECT_THROW(PpmPredictor(4, 9), std::invalid_argument);
}

TEST(PpmPredictor, LearnsOrder2Pattern) {
  // Sequence alternates blocks: after (0,1) comes 2; after (2,1) comes 0.
  // An order-2 model separates them; order-1 cannot.
  PpmPredictor pred(3, 2);
  for (int rep = 0; rep < 200; ++rep) {
    pred.observe(0);
    pred.observe(1);
    pred.observe(2);
    pred.observe(1);
  }
  // History now ends ...2, 1 -> expect 0 next (cycle restarts).
  const auto p = pred.predict();
  EXPECT_GT(p[0], 0.6);
}

TEST(PpmPredictor, EscapesToLowerOrderOnNovelContext) {
  PpmPredictor pred(4, 2);
  for (int rep = 0; rep < 50; ++rep) {
    pred.observe(0);
    pred.observe(1);
  }
  pred.observe(3);  // novel context (1, 3): order-2 unseen
  const auto p = pred.predict();
  EXPECT_NEAR(sum(p), 1.0, 1e-9);  // still a proper distribution
}

TEST(PpmPredictor, ResetForgets) {
  PpmPredictor pred(3, 2);
  for (int i = 0; i < 30; ++i) pred.observe(i % 3);
  pred.reset();
  const auto p = pred.predict();
  for (double x : p) EXPECT_NEAR(x, 1.0 / 3.0, 1e-9);
}

TEST(DependencyGraph, ConstructionValidation) {
  EXPECT_THROW(DependencyGraph(0), std::invalid_argument);
  EXPECT_THROW(DependencyGraph(4, 0), std::invalid_argument);
}

TEST(DependencyGraph, ArcsCountWindowCooccurrence) {
  DependencyGraph dg(4, 2);
  dg.observe(0);
  dg.observe(1);  // window {0}: arc 0->1
  dg.observe(2);  // window {0,1}: arcs 0->2, 1->2
  EXPECT_EQ(dg.arc(0, 1), 1u);
  EXPECT_EQ(dg.arc(0, 2), 1u);
  EXPECT_EQ(dg.arc(1, 2), 1u);
  EXPECT_EQ(dg.arc(2, 0), 0u);
}

TEST(DependencyGraph, Window1IsFirstOrderMarkov) {
  DependencyGraph dg(3, 1);
  dg.observe(0);
  dg.observe(1);
  dg.observe(0);
  dg.observe(1);
  EXPECT_EQ(dg.arc(0, 1), 2u);
  EXPECT_EQ(dg.arc(1, 0), 1u);
}

TEST(DependencyGraph, PredictNormalizesOutArcs) {
  DependencyGraph dg(3, 1);
  for (int i = 0; i < 3; ++i) {
    dg.observe(0);
    dg.observe(1);
    dg.observe(0);
    dg.observe(2);
  }
  dg.observe(0);
  const auto p = dg.predict();
  EXPECT_NEAR(sum(p), 1.0, 1e-9);
  EXPECT_GT(p[1], 0.0);
  EXPECT_GT(p[2], 0.0);
  EXPECT_DOUBLE_EQ(p[0], 0.0);  // no self arcs observed
}

TEST(DependencyGraph, ColdStartIsUniform) {
  DependencyGraph dg(5, 2);
  const auto p = dg.predict();
  for (double x : p) EXPECT_NEAR(x, 0.2, 1e-9);
}

TEST(DependencyGraph, ArcProbabilityNormalizedByAccesses) {
  DependencyGraph dg(3, 1);
  dg.observe(0);
  dg.observe(1);
  dg.observe(0);
  dg.observe(2);
  // Item 0 accessed twice; arc 0->1 observed once.
  EXPECT_DOUBLE_EQ(dg.arc_probability(0, 1), 0.5);
}

TEST(Predictors, MarkovBeatsUniformOnMarkovSource) {
  // On the Fig. 7 workload, a learned first-order model should assign the
  // realized next item more mass than the uniform baseline on average.
  Rng build(5);
  MarkovSourceConfig cfg;
  cfg.n_states = 20;
  cfg.out_degree_lo = 3;
  cfg.out_degree_hi = 5;
  MarkovSource src(cfg, build);
  MarkovPredictor pred(cfg.n_states, 0.01);
  Rng walk(6);
  src.teleport(0);
  pred.observe(0);
  double mass_on_realized = 0;
  const int steps = 5000;
  // Warm up the predictor on the first half.
  for (int i = 0; i < steps; ++i) {
    const auto next = static_cast<ItemId>(src.step(walk));
    if (i > steps / 2) {
      mass_on_realized += pred.predict()[static_cast<std::size_t>(next)];
    }
    pred.observe(next);
  }
  const double avg = mass_on_realized / (steps / 2.0 - 1);
  EXPECT_GT(avg, 2.0 / cfg.n_states);  // at least 2x uniform
}

// ---------------------------------------------------------------------
// Equivalence of the sparse predictors with dense references.
//
// The references below keep the learned state the way the predictors
// used to: n x n count matrices, a deque history, a map-based trie and a
// materialized backstop row. Every prediction must be bit-equal to the
// reference after every observation.

class DenseMarkov {
 public:
  DenseMarkov(std::size_t n, double laplace)
      : n_(n), laplace_(laplace), counts_(n, std::vector<std::uint64_t>(n)),
        row_total_(n), marginal_(n) {}

  void observe(ItemId item) {
    const auto i = static_cast<std::size_t>(item);
    if (last_ != kNoItem) {
      const auto p = static_cast<std::size_t>(last_);
      ++counts_[p][i];
      ++row_total_[p];
    }
    ++marginal_[i];
    ++total_;
    last_ = item;
  }

  std::vector<double> predict() const {
    std::vector<double> out(n_);
    if (last_ == kNoItem ||
        row_total_[static_cast<std::size_t>(last_)] == 0) {
      const double denom =
          static_cast<double>(total_) + laplace_ * static_cast<double>(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        out[i] = (static_cast<double>(marginal_[i]) + laplace_) / denom;
      }
      return out;
    }
    const auto row = static_cast<std::size_t>(last_);
    const double denom = static_cast<double>(row_total_[row]) +
                         laplace_ * static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      out[i] = (static_cast<double>(counts_[row][i]) + laplace_) / denom;
    }
    return out;
  }

  std::uint64_t count(std::size_t a, std::size_t b) const {
    return counts_[a][b];
  }

 private:
  std::size_t n_;
  double laplace_;
  std::vector<std::vector<std::uint64_t>> counts_;
  std::vector<std::uint64_t> row_total_, marginal_;
  std::uint64_t total_ = 0;
  ItemId last_ = kNoItem;
};

class DenseDependencyGraph {
 public:
  DenseDependencyGraph(std::size_t n, std::size_t window)
      : n_(n), window_(window), weight_(n, std::vector<std::uint64_t>(n)),
        accesses_(n) {}

  void observe(ItemId item) {
    const auto i = static_cast<std::size_t>(item);
    for (ItemId prev : recent_) {
      if (prev != item) ++weight_[static_cast<std::size_t>(prev)][i];
    }
    ++accesses_[i];
    recent_.push_back(item);
    if (recent_.size() > window_) recent_.pop_front();
    last_ = item;
  }

  std::vector<double> predict() const {
    std::vector<double> p(n_);
    if (last_ == kNoItem || accesses_[static_cast<std::size_t>(last_)] == 0) {
      std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
      return p;
    }
    const auto row = static_cast<std::size_t>(last_);
    std::uint64_t total = 0;
    for (std::size_t j = 0; j < n_; ++j) total += weight_[row][j];
    if (total == 0) {
      std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
      return p;
    }
    for (std::size_t j = 0; j < n_; ++j) {
      p[j] = static_cast<double>(weight_[row][j]) / static_cast<double>(total);
    }
    return p;
  }

  std::uint64_t arc(std::size_t a, std::size_t b) const {
    return weight_[a][b];
  }

 private:
  std::size_t n_, window_;
  std::vector<std::vector<std::uint64_t>> weight_;
  std::vector<std::uint64_t> accesses_;
  std::deque<ItemId> recent_;
  ItemId last_ = kNoItem;
};

class RefPpm {
 public:
  RefPpm(std::size_t n, std::size_t order)
      : n_(n), order_(order), tables_(order), marginal_(n) {}

  void observe(ItemId item) {
    for (std::size_t len = 1; len <= std::min(order_, history_.size());
         ++len) {
      Ctx& ctx = tables_[len - 1][key(len)];
      ++ctx.total;
      ++ctx.counts[item];
    }
    ++marginal_[static_cast<std::size_t>(item)];
    history_.push_back(item);
    if (history_.size() > order_) history_.pop_front();
  }

  std::vector<double> predict() const {
    std::vector<double> p(n_, 0.0);
    std::vector<char> excluded(n_, 0);
    double remaining = 1.0;
    for (std::size_t len = std::min(order_, history_.size()); len >= 1;
         --len) {
      const auto it = tables_[len - 1].find(key(len));
      if (it == tables_[len - 1].end() || it->second.total == 0) continue;
      std::uint64_t total = 0, distinct = 0;
      for (const auto& [sym, c] : it->second.counts) {
        if (excluded[static_cast<std::size_t>(sym)]) continue;
        total += c;
        ++distinct;
      }
      if (total == 0) continue;
      const double denom = static_cast<double>(total + distinct);
      for (const auto& [sym, c] : it->second.counts) {
        const auto s = static_cast<std::size_t>(sym);
        if (excluded[s]) continue;
        p[s] += remaining * static_cast<double>(c) / denom;
        excluded[s] = 1;
      }
      remaining *= static_cast<double>(distinct) / denom;
    }
    std::uint64_t marg_total = 0;
    std::size_t open = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!excluded[i]) {
        marg_total += marginal_[i];
        ++open;
      }
    }
    for (std::size_t i = 0; open > 0 && i < n_; ++i) {
      if (excluded[i]) continue;
      const double base = marg_total > 0
                              ? static_cast<double>(marginal_[i]) /
                                    static_cast<double>(marg_total)
                              : 1.0 / static_cast<double>(open);
      const double uniform = 1.0 / static_cast<double>(open);
      p[i] += remaining * (0.9 * base + 0.1 * uniform);
    }
    double sum = 0.0;
    for (double x : p) sum += x;
    if (sum <= 0.0) {
      std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
      return p;
    }
    for (double& x : p) x /= sum;
    return p;
  }

 private:
  struct Ctx {
    std::uint64_t total = 0;
    std::map<ItemId, std::uint64_t> counts;
  };
  // The predictor's context-key encoding (collisions included).
  std::uint64_t key(std::size_t len) const {
    std::uint64_t k = 1;
    const std::uint64_t base = static_cast<std::uint64_t>(n_) + 1;
    for (std::size_t i = history_.size() - len; i < history_.size(); ++i) {
      k = k * base + static_cast<std::uint64_t>(history_[i]) + 1;
    }
    return k;
  }

  std::size_t n_, order_;
  std::vector<std::unordered_map<std::uint64_t, Ctx>> tables_;
  std::vector<std::uint64_t> marginal_;
  std::deque<ItemId> history_;
};

class RefLz78 {
 public:
  explicit RefLz78(std::size_t n) : n_(n), nodes_(1), marginal_(n) {}

  void observe(ItemId item) {
    ++nodes_[cur_].total;
    ++marginal_[static_cast<std::size_t>(item)];
    ++total_;
    const auto it = nodes_[cur_].edges.find(item);
    if (it != nodes_[cur_].edges.end()) {
      ++it->second.second;
      cur_ = it->second.first;
      return;
    }
    nodes_[cur_].edges[item] = {nodes_.size(), 1};
    nodes_.emplace_back();
    cur_ = 0;
  }

  std::vector<double> predict() const {
    std::vector<double> p(n_, 0.0);
    if (total_ == 0) {
      std::fill(p.begin(), p.end(), 1.0 / static_cast<double>(n_));
      return p;
    }
    std::vector<double> base(n_);
    const double denom = static_cast<double>(total_) + static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      base[i] = (static_cast<double>(marginal_[i]) + 1.0) / denom;
    }
    const Node& cur = nodes_[cur_];
    if (cur.total == 0) return base;
    const double distinct = static_cast<double>(cur.edges.size());
    const double esc = distinct / (static_cast<double>(cur.total) + distinct);
    for (const auto& [sym, e] : cur.edges) {
      p[static_cast<std::size_t>(sym)] = (1.0 - esc) *
                                         static_cast<double>(e.second) /
                                         static_cast<double>(cur.total);
    }
    for (std::size_t i = 0; i < n_; ++i) p[i] += esc * base[i];
    double sum = 0.0;
    for (const double x : p) sum += x;
    for (double& x : p) x /= sum;
    return p;
  }

 private:
  struct Node {
    std::uint64_t total = 0;
    std::map<ItemId, std::pair<std::size_t, std::uint64_t>> edges;
  };
  std::size_t n_;
  std::vector<Node> nodes_;
  std::size_t cur_ = 0;
  std::vector<std::uint64_t> marginal_;
  std::uint64_t total_ = 0;
};

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// A seeded stream with structure: mostly one of three successors of the
// previous item (so contexts recur and counts grow past 1), sometimes a
// uniform jump (so rows keep gaining new successors).
class StructuredStream {
 public:
  StructuredStream(std::size_t n, std::uint64_t seed) : n_(n), rng_(seed) {}
  ItemId next() {
    if (rng_.next_double() < 0.8) {
      const std::size_t k = rng_.next_below(3);
      prev_ = (prev_ * 7 + 3 * k + 1) % n_;
    } else {
      prev_ = rng_.next_below(n_);
    }
    return static_cast<ItemId>(prev_);
  }

 private:
  std::size_t n_;
  Rng rng_;
  std::size_t prev_ = 0;
};

constexpr std::size_t kEquivalenceSizes[] = {1, 2, 100, 1000};

// Drives `pred` and `ref` through the same stream, comparing predictions
// bit for bit before the first and after every observation. Halfway
// through both are reset (the reference by reconstruction).
template <typename Pred, typename MakeRef>
void expect_bit_identical(Pred& pred, MakeRef make_ref, std::size_t n,
                          std::uint64_t seed, std::size_t steps) {
  auto ref = make_ref();
  StructuredStream stream(n, seed);
  std::vector<double> out;
  for (std::size_t t = 0; t <= steps; ++t) {
    if (t == steps / 2) {
      pred.reset();
      ref = make_ref();
    }
    pred.predict_into(out);
    ASSERT_TRUE(bit_equal(out, ref.predict()))
        << "n=" << n << " step " << t;
    if (t == steps) break;
    const ItemId item = stream.next();
    pred.observe(item);
    ref.observe(item);
  }
}

TEST(SparsePredictors, MarkovBitIdenticalToDenseReference) {
  for (const std::size_t n : kEquivalenceSizes) {
    for (const double laplace : {0.1, 0.01}) {
      MarkovPredictor pred(n, laplace);
      expect_bit_identical(
          pred, [&] { return DenseMarkov(n, laplace); }, n, 11 + n, 600);
    }
  }
}

TEST(SparsePredictors, DependencyGraphBitIdenticalToDenseReference) {
  for (const std::size_t n : kEquivalenceSizes) {
    for (const std::size_t window : {1u, 2u, 4u}) {
      DependencyGraph pred(n, window);
      expect_bit_identical(
          pred, [&] { return DenseDependencyGraph(n, window); }, n, 21 + n,
          600);
    }
  }
}

TEST(SparsePredictors, PpmBitIdenticalToReferenceAtEveryOrder) {
  for (const std::size_t n : kEquivalenceSizes) {
    for (std::size_t order = 1; order <= 8; ++order) {
      PpmPredictor pred(n, order);
      expect_bit_identical(
          pred, [&] { return RefPpm(n, order); }, n, 31 + n + order, 400);
    }
  }
}

TEST(SparsePredictors, Lz78BitIdenticalToReference) {
  for (const std::size_t n : kEquivalenceSizes) {
    Lz78Predictor pred(n);
    expect_bit_identical(pred, [&] { return RefLz78(n); }, n, 41 + n, 600);
  }
}

TEST(SparsePredictors, CountsAndArcsMatchDenseReference) {
  for (const std::size_t n : {2u, 100u}) {
    MarkovPredictor markov(n);
    DenseMarkov dense_markov(n, 0.1);
    DependencyGraph dg(n, 3);
    DenseDependencyGraph dense_dg(n, 3);
    StructuredStream stream(n, 51 + n);
    for (int t = 0; t < 400; ++t) {
      const ItemId item = stream.next();
      markov.observe(item);
      dense_markov.observe(item);
      dg.observe(item);
      dense_dg.observe(item);
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        const auto ia = static_cast<ItemId>(a);
        const auto ib = static_cast<ItemId>(b);
        ASSERT_EQ(markov.count(ia, ib), dense_markov.count(a, b));
        ASSERT_EQ(dg.arc(ia, ib), dense_dg.arc(a, b));
      }
    }
  }
}

TEST(SparsePredictors, MarkovNoContextUsesMarginal) {
  // One observation: the last item has no outgoing transition yet, so the
  // prediction is the smoothed marginal, bit for bit.
  MarkovPredictor pred(4, 0.5);
  DenseMarkov ref(4, 0.5);
  pred.observe(2);
  ref.observe(2);
  const auto p = pred.predict();
  EXPECT_TRUE(bit_equal(p, ref.predict()));
  EXPECT_EQ(p[2], (1.0 + 0.5) / (1.0 + 0.5 * 4.0));
}

TEST(SparsePredictors, MarkovFootprintGrowsWithTransitionsNotSquare) {
  // n = 1000: the dense matrix alone was 8 MB.
  constexpr std::size_t n = 1000;
  MarkovPredictor pred(n);
  const std::size_t cold = pred.footprint_bytes();
  StructuredStream stream(n, 61);
  for (int t = 0; t < 500; ++t) pred.observe(stream.next());
  EXPECT_LT(pred.footprint_bytes(), 64u * 1024u);
  EXPECT_GT(pred.footprint_bytes(), cold);
}

TEST(SparsePredictors, FootprintGrowsThroughTheVirtualCall) {
  std::vector<std::unique_ptr<Predictor>> preds;
  preds.push_back(std::make_unique<MarkovPredictor>(50));
  preds.push_back(std::make_unique<DependencyGraph>(50, 2));
  preds.push_back(std::make_unique<PpmPredictor>(50, 3));
  preds.push_back(std::make_unique<Lz78Predictor>(50));
  for (auto& p : preds) {
    const std::size_t cold = p->footprint_bytes();
    EXPECT_GT(cold, 0u);
    StructuredStream stream(50, 71);
    for (int t = 0; t < 300; ++t) p->observe(stream.next());
    EXPECT_GT(p->footprint_bytes(), cold);
  }
}

}  // namespace
}  // namespace skp
