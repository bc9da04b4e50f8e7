// Property tests for the plan-memoization subsystem: Zobrist cache
// fingerprints, PlanCache LRU bounds/stats/generations, the per-state
// CanonicalOrderTable, and the engine's memoized cache-aware planners.
#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cache/cache.hpp"
#include "cache/sized_cache.hpp"
#include "cache/zobrist.hpp"
#include "core/prefetch_engine.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace skp {
namespace {

using testing::model_fingerprint;

// ---- Zobrist fingerprints -----------------------------------------------

TEST(ZobristFingerprint, EmptyCacheIsZero) {
  SlotCache cache(16, 4);
  EXPECT_EQ(cache.fingerprint(), 0u);
  cache.insert(3);
  cache.erase(3);
  EXPECT_EQ(cache.fingerprint(), 0u);  // insert/erase are XOR inverses
}

TEST(ZobristFingerprint, OrderIndependent) {
  SlotCache a(32, 8), b(32, 8);
  const ItemId items[] = {5, 17, 2, 30};
  for (const ItemId i : items) a.insert(i);
  for (auto it = std::rbegin(items); it != std::rend(items); ++it) {
    b.insert(*it);
  }
  EXPECT_NE(a.fingerprint(), 0u);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

TEST(ZobristFingerprint, ReplaceAndClearTracked) {
  SlotCache cache(16, 2);
  cache.insert(1);
  cache.insert(2);
  const std::uint64_t before = cache.fingerprint();
  cache.replace(1, 7);
  EXPECT_EQ(cache.fingerprint(),
            before ^ zobrist_item_key(1) ^ zobrist_item_key(7));
  cache.clear();
  EXPECT_EQ(cache.fingerprint(), 0u);
}

TEST(ZobristFingerprint, RandomWalkMatchesSetModel) {
  // Insert/erase inverse over a long random walk, for both cache kinds.
  Rng rng(2024);
  SlotCache slot(40, 12);
  std::vector<double> sizes(40, 2.0);
  SizedCache sized(sizes, 24.0);
  std::set<ItemId> slot_model, sized_model;
  for (int op = 0; op < 20000; ++op) {
    const auto item = static_cast<ItemId>(rng.next_below(40));
    if (slot_model.count(item)) {
      slot.erase(item);
      slot_model.erase(item);
    } else if (slot_model.size() < 12) {
      slot.insert(item);
      slot_model.insert(item);
    }
    if (sized_model.count(item)) {
      sized.erase(item);
      sized_model.erase(item);
    } else if (sized.fits(item)) {
      sized.insert(item);
      sized_model.insert(item);
    }
    ASSERT_EQ(slot.fingerprint(), model_fingerprint(slot_model));
    ASSERT_EQ(sized.fingerprint(), model_fingerprint(sized_model));
  }
}

TEST(ZobristFingerprint, CollisionSmokeOverRandomSets) {
  // Thousands of distinct random subsets of one catalog must all map to
  // distinct fingerprints (a collision here is a ~2^-64 event, i.e. a
  // bug in the key function, not bad luck).
  Rng rng(7);
  std::map<std::uint64_t, std::set<ItemId>> seen;
  for (int trial = 0; trial < 5000; ++trial) {
    std::set<ItemId> s;
    const std::size_t k = rng.next_below(12);
    for (std::size_t j = 0; j < k; ++j) {
      s.insert(static_cast<ItemId>(rng.next_below(128)));
    }
    const std::uint64_t fp = model_fingerprint(s);
    const auto [it, inserted] = seen.emplace(fp, s);
    if (!inserted) {
      EXPECT_EQ(it->second, s)
          << "distinct sets collided on fingerprint " << fp;
    }
  }
}

// ---- PlanCache ----------------------------------------------------------

StoredPlan make_plan(ItemId tag) {
  StoredPlan p;
  p.fetch = {tag};
  p.evict = {static_cast<ItemId>(tag + 1)};
  p.predicted_g = static_cast<double>(tag) * 0.5;
  p.stretch = 1.0;
  p.solver_nodes = static_cast<std::uint64_t>(tag);
  return p;
}

TEST(PlanCacheTest, FindAfterInsertRoundTrips) {
  PlanCache cache(0xd16e57, 8);
  EXPECT_EQ(cache.config_digest(), 0xd16e57u);
  EXPECT_EQ(cache.find(1, 2), nullptr);
  *cache.insert(1, 2) = make_plan(9);
  const StoredPlan* got = cache.find(1, 2);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->fetch, PrefetchList{9});
  EXPECT_EQ(got->solver_nodes, 9u);
  // Key components are independent: neither half alone matches.
  EXPECT_EQ(cache.find(1, 3), nullptr);
  EXPECT_EQ(cache.find(2, 2), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(PlanCacheTest, LruEvictionBoundsSize) {
  PlanCache cache(0, 4);
  for (ItemId i = 0; i < 10; ++i) {
    *cache.insert(static_cast<std::uint64_t>(i), 0) = make_plan(i);
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.stats().evictions, 6u);
  // The four most recent survive; the rest were evicted oldest-first.
  for (ItemId i = 0; i < 6; ++i) {
    EXPECT_EQ(cache.find(static_cast<std::uint64_t>(i), 0), nullptr) << i;
  }
  for (ItemId i = 6; i < 10; ++i) {
    EXPECT_NE(cache.find(static_cast<std::uint64_t>(i), 0), nullptr) << i;
  }
}

TEST(PlanCacheTest, FindRefreshesLruOrder) {
  PlanCache cache(0, 2);
  *cache.insert(1, 0) = make_plan(1);
  *cache.insert(2, 0) = make_plan(2);
  ASSERT_NE(cache.find(1, 0), nullptr);  // 1 becomes MRU
  *cache.insert(3, 0) = make_plan(3);     // evicts 2, not 1
  EXPECT_NE(cache.find(1, 0), nullptr);
  EXPECT_EQ(cache.find(2, 0), nullptr);
  EXPECT_NE(cache.find(3, 0), nullptr);
}

TEST(PlanCacheTest, GenerationHidesStaleEntries) {
  PlanCache cache(0, 8);
  *cache.insert(5, 5) = make_plan(5);
  ASSERT_NE(cache.find(5, 5), nullptr);
  cache.bump_generation();
  EXPECT_EQ(cache.find(5, 5), nullptr)
      << "a stale-generation plan must be unreachable";
  *cache.insert(5, 5) = make_plan(6);
  const StoredPlan* got = cache.find(5, 5);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->fetch, PrefetchList{6});
}

TEST(PlanCacheTest, InsertOverwritesExistingKey) {
  PlanCache cache(0, 4);
  *cache.insert(1, 1) = make_plan(1);
  *cache.insert(1, 1) = make_plan(2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find(1, 1)->fetch, PrefetchList{2});
}

TEST(PlanCacheStatsTest, MergeAndHitRate) {
  PlanCacheStats a{8, 2, 2, 1}, b{2, 8, 8, 0};
  a.merge(b);
  EXPECT_EQ(a.hits, 10u);
  EXPECT_EQ(a.misses, 10u);
  EXPECT_EQ(a.inserts, 10u);
  EXPECT_EQ(a.evictions, 1u);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(PlanCacheStats{}.hit_rate(), 0.0);
}

// ---- CanonicalOrderTable ------------------------------------------------

TEST(CanonicalOrderTableTest, RowMatchesCanonicalOrder) {
  Instance inst;
  inst.P = {0.0, 0.3, 0.1, 0.0, 0.25, 0.15};
  inst.r = {5, 3, 7, 2, 3, 7};
  inst.v = 10;
  const std::vector<ItemId> positive = {1, 2, 4, 5};
  CanonicalOrderTable table(3);
  const auto row = table.row(0, inst, positive);
  const auto expect = canonical_order(inst, positive);
  EXPECT_TRUE(std::equal(row.order.begin(), row.order.end(),
                         expect.begin(), expect.end()));
  // Suffix sums: Figure-3 tail sums with the trailing sentinel.
  ASSERT_EQ(row.suffix_prob.size(), row.order.size() + 1);
  EXPECT_DOUBLE_EQ(row.suffix_prob.back(), 0.0);
  for (std::size_t j = row.order.size(); j-- > 0;) {
    EXPECT_DOUBLE_EQ(row.suffix_prob[j],
                     row.suffix_prob[j + 1] +
                         inst.P[InstanceView::idx(row.order[j])]);
  }
}

TEST(CanonicalOrderTableTest, ZeroProbabilityEntriesSkipped) {
  Instance inst;
  inst.P = {0.5, 0.0, 0.5};
  inst.r = {1, 1, 1};
  inst.v = 2;
  CanonicalOrderTable table(1);
  const std::vector<ItemId> positive = {0, 1, 2};  // 1 has P == 0
  const auto row = table.row(0, inst, positive);
  EXPECT_EQ(std::vector<ItemId>(row.order.begin(), row.order.end()),
            (std::vector<ItemId>{0, 2}));
}

TEST(CanonicalOrderTableTest, RowsCachedUntilInvalidated) {
  Instance a;
  a.P = {0.6, 0.4};
  a.r = {2, 3};
  a.v = 4;
  Instance b = a;
  b.P = {0.1, 0.9};  // would reverse the order
  const std::vector<ItemId> positive = {0, 1};

  CanonicalOrderTable table(1);
  auto row = table.row(0, a, positive);
  EXPECT_EQ(row.order[0], 0);
  // Same generation: the cached row is served even for a different
  // instance (the caller's contract is that P is unchanged).
  row = table.row(0, b, positive);
  EXPECT_EQ(row.order[0], 0) << "row must be cached, not rebuilt";
  // After invalidation the row rebuilds against the new instance.
  table.invalidate_all();
  row = table.row(0, b, positive);
  EXPECT_EQ(row.order[0], 1);
}

// ---- Engine integration -------------------------------------------------

TEST(EngineConfigDigest, DistinguishesConfigs) {
  EngineConfig a;
  EXPECT_EQ(engine_config_digest(a), engine_config_digest(a));
  std::vector<EngineConfig> variants(5, a);
  variants[0].policy = PrefetchPolicy::KP;
  variants[1].delta_rule = DeltaRule::PaperTail;
  variants[2].arbitration.sub = SubArbitration::LFU;
  variants[3].arbitration.strict_ties = true;
  variants[4].min_profit_threshold = 2.0;
  std::set<std::uint64_t> digests{engine_config_digest(a)};
  for (const auto& v : variants) {
    EXPECT_TRUE(digests.insert(engine_config_digest(v)).second)
        << "digest collision between distinct configs";
  }
}

TEST(EnginePlanCached, HitReplaysThePlanBitForBit) {
  Instance inst;
  inst.P = {0.0, 0.3, 0.1, 0.0, 0.25, 0.15, 0.2};
  inst.r = {5, 3, 7, 2, 3, 7, 4};
  inst.v = 8;
  SlotCache cache(7, 3);
  cache.insert(0);
  cache.insert(3);
  cache.insert(6);
  FreqTracker freq(7);

  const PrefetchEngine engine(EngineConfig{});
  PlanCache plans(engine.config_digest(), 16);
  CanonicalOrderTable canon(1);
  const std::vector<ItemId> hint = {1, 2, 4, 5, 6};
  PlanMemo memo;
  memo.plans = &plans;
  memo.canon = &canon;

  PlanScratch scratch;
  PrefetchPlan uncached, first, second;
  engine.plan_with_cache(inst, cache, &freq, PlanMemo{}, scratch, uncached);
  engine.plan_with_cache(inst, cache, &freq, memo, scratch, first,
                         std::nullopt, hint);
  engine.plan_with_cache(inst, cache, &freq, memo, scratch, second,
                         std::nullopt, hint);
  EXPECT_EQ(plans.stats().misses, 1u);
  EXPECT_EQ(plans.stats().hits, 1u);
  for (const PrefetchPlan* p : {&first, &second}) {
    EXPECT_EQ(p->fetch, uncached.fetch);
    EXPECT_EQ(p->evict, uncached.evict);
    EXPECT_DOUBLE_EQ(p->predicted_g, uncached.predicted_g);
    EXPECT_DOUBLE_EQ(p->stretch, uncached.stretch);
    EXPECT_EQ(p->solver_nodes, uncached.solver_nodes);
  }

  // Mutating the cache changes the fingerprint: the stale plan must not
  // be replayed against the new contents.
  cache.replace(0, 2);
  PrefetchPlan third, fresh;
  engine.plan_with_cache(inst, cache, &freq, memo, scratch, third,
                         std::nullopt, hint);
  engine.plan_with_cache(inst, cache, &freq, PlanMemo{}, scratch, fresh);
  EXPECT_EQ(plans.stats().misses, 2u);
  EXPECT_EQ(third.fetch, fresh.fetch);
  EXPECT_EQ(third.evict, fresh.evict);
}

TEST(EnginePlanCached, RejectsForeignConfigDigest) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {1, 2};
  inst.v = 2;
  SlotCache cache(2, 1);
  const PrefetchEngine engine(EngineConfig{});
  PlanCache foreign(engine.config_digest() ^ 1, 4);
  PlanMemo memo;
  memo.plans = &foreign;
  PlanScratch scratch;
  PrefetchPlan out;
  EXPECT_THROW(
      engine.plan_with_cache(inst, cache, nullptr, memo, scratch, out),
      std::invalid_argument);
}

TEST(EnginePlanCached, SelectionTierSurvivesCacheChurn) {
  // The solver tier keys on the candidate SET (support \ cache), not the
  // full cache contents: caches {0, 6} and {3, 6} differ only in a
  // zero-probability item, so both leave candidates {1, 2, 4, 5}. The
  // completed-plan tier must miss twice (different fingerprints) while
  // the selection tier serves the second solve from the first — and the
  // admission stage still picks each cache's own victims.
  Instance inst;
  inst.P = {0.0, 0.3, 0.1, 0.0, 0.25, 0.15, 0.2};  // zero-P: items 0, 3
  inst.r = {5, 3, 7, 2, 3, 7, 4};
  inst.v = 8;
  FreqTracker freq(7);
  const PrefetchEngine engine(EngineConfig{});
  PlanCache plans(engine.config_digest(), 16);
  PlanCache selections(engine.config_digest(), 16);
  PlanMemo memo;
  memo.plans = &plans;
  memo.selections = &selections;

  SlotCache a(7, 2), b(7, 2);
  a.insert(0);
  a.insert(6);
  b.insert(3);
  b.insert(6);

  PlanScratch scratch;
  PrefetchPlan plan_a, plan_b, fresh_b;
  engine.plan_with_cache(inst, a, &freq, memo, scratch, plan_a);
  engine.plan_with_cache(inst, b, &freq, memo, scratch, plan_b);
  EXPECT_EQ(plans.stats().hits, 0u);
  EXPECT_EQ(plans.stats().misses, 2u);
  EXPECT_EQ(selections.stats().misses, 1u);
  EXPECT_EQ(selections.stats().hits, 1u);

  // The replayed selection must drive the exact plan a fresh solve
  // produces against cache b.
  engine.plan_with_cache(inst, b, &freq, PlanMemo{}, scratch, fresh_b);
  EXPECT_EQ(plan_b.fetch, fresh_b.fetch);
  EXPECT_EQ(plan_b.evict, fresh_b.evict);
  EXPECT_DOUBLE_EQ(plan_b.predicted_g, fresh_b.predicted_g);
  EXPECT_EQ(plan_b.solver_nodes, fresh_b.solver_nodes);
  // Same selection, different victims: a evicts its zero-P item 0,
  // b evicts 3.
  EXPECT_EQ(plan_a.fetch, plan_b.fetch);
  if (!plan_a.evict.empty() && !plan_b.evict.empty()) {
    EXPECT_EQ(plan_a.evict.front(), 0);
    EXPECT_EQ(plan_b.evict.front(), 3);
  }
}

TEST(EnginePlanCached, NoneAndPerfectBypassTheCache) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {1, 2};
  inst.v = 2;
  SlotCache cache(2, 2);
  FreqTracker freq(2);
  PlanScratch scratch;
  PrefetchPlan out;
  for (const PrefetchPolicy policy :
       {PrefetchPolicy::None, PrefetchPolicy::Perfect}) {
    EngineConfig cfg;
    cfg.policy = policy;
    const PrefetchEngine engine(cfg);
    PlanCache plans(engine.config_digest(), 4);
    PlanMemo memo{&plans, nullptr, 0};
    engine.plan_with_cache(inst, cache, &freq, memo, scratch, out,
                           ItemId{1});
    EXPECT_EQ(plans.stats().lookups(), 0u) << to_string(policy);
    EXPECT_EQ(plans.size(), 0u) << to_string(policy);
  }
}

}  // namespace
}  // namespace skp
