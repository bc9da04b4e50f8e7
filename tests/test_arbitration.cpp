#include "core/arbitration.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/prefetch_engine.hpp"
#include "test_util.hpp"

namespace skp {
namespace {

// small_instance profits: {5, 6, .75, .4}.

TEST(ChooseVictim, PicksMinimalPr) {
  const Instance inst = testing::small_instance();
  const std::vector<ItemId> cached{0, 1, 2, 3};
  const ItemId v = choose_victim(inst, cached, nullptr, {});
  EXPECT_EQ(v, 3);  // P*r = .4 is the smallest
}

TEST(ChooseVictim, SingleCandidate) {
  const Instance inst = testing::small_instance();
  const std::vector<ItemId> cached{1};
  EXPECT_EQ(choose_victim(inst, cached, nullptr, {}), 1);
}

TEST(ChooseVictim, EmptyCacheThrows) {
  const Instance inst = testing::small_instance();
  EXPECT_THROW(choose_victim(inst, {}, nullptr, {}),
               std::invalid_argument);
}

TEST(ChooseVictim, PrTieBrokenByLowestIdWithoutSub) {
  Instance inst;
  inst.P = {0.25, 0.25, 0.5};
  inst.r = {4.0, 4.0, 2.0};
  inst.v = 10.0;
  const std::vector<ItemId> cached{1, 0};  // both Pr = 1.0
  EXPECT_EQ(choose_victim(inst, cached, nullptr, {}), 0);
}

TEST(ChooseVictim, LfuSubArbitrationPrefersLeastFrequent) {
  Instance inst;
  inst.P = {0.25, 0.25, 0.5};
  inst.r = {4.0, 4.0, 2.0};
  inst.v = 10.0;
  FreqTracker freq(3);
  freq.record(0);
  freq.record(0);
  freq.record(1);
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::LFU;
  const std::vector<ItemId> cached{0, 1};
  EXPECT_EQ(choose_victim(inst, cached, &freq, cfg), 1);
}

TEST(ChooseVictim, DsSubArbitrationUsesDelaySavingProfit) {
  // Equal Pr and equal frequency, but different r: DS evicts the one with
  // the smaller freq * r (cheaper to re-fetch).
  Instance inst;
  inst.P = {0.2, 0.1, 0.7};
  inst.r = {5.0, 10.0, 1.0};  // Pr: 1.0, 1.0, .7
  inst.v = 10.0;
  FreqTracker freq(3);
  freq.record(0);
  freq.record(1);
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::DS;
  const std::vector<ItemId> cached{0, 1};
  // DS: item0 = 1*5 = 5, item1 = 1*10 = 10 -> evict 0.
  EXPECT_EQ(choose_victim(inst, cached, &freq, cfg), 0);
}

TEST(ChooseVictim, SubArbitrationOnlyAppliesToPrTies) {
  // Item with strictly smaller Pr wins regardless of frequency.
  const Instance inst = testing::small_instance();
  FreqTracker freq(4);
  for (int i = 0; i < 10; ++i) freq.record(3);  // very popular
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::LFU;
  const std::vector<ItemId> cached{2, 3};
  EXPECT_EQ(choose_victim(inst, cached, &freq, cfg), 3);  // min Pr still
}

TEST(ChooseVictim, SubArbitrationRequiresTracker) {
  const Instance inst = testing::small_instance();
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::DS;
  const std::vector<ItemId> cached{0, 1};
  EXPECT_THROW(choose_victim(inst, cached, nullptr, cfg),
               std::invalid_argument);
}

TEST(ChooseVictim, DsTieFallsBackToLowestId) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {4.0, 4.0};
  inst.v = 10.0;
  FreqTracker freq(2);  // both frequency 0
  ArbitrationConfig cfg;
  cfg.sub = SubArbitration::DS;
  const std::vector<ItemId> cached{1, 0};
  EXPECT_EQ(choose_victim(inst, cached, &freq, cfg), 0);
}

TEST(AdmitsPrefetch, ListingRuleAdmitsTies) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {4.0, 4.0};  // equal profits
  inst.v = 10.0;
  ArbitrationConfig listing;  // strict_ties = false
  EXPECT_TRUE(admits_prefetch(inst, 0, 1, listing));
}

TEST(AdmitsPrefetch, ProseRuleRejectsTies) {
  Instance inst;
  inst.P = {0.5, 0.5};
  inst.r = {4.0, 4.0};
  inst.v = 10.0;
  ArbitrationConfig prose;
  prose.strict_ties = true;
  EXPECT_FALSE(admits_prefetch(inst, 0, 1, prose));
}

TEST(AdmitsPrefetch, HigherProfitAlwaysAdmitted) {
  const Instance inst = testing::small_instance();
  for (const bool strict : {false, true}) {
    ArbitrationConfig cfg;
    cfg.strict_ties = strict;
    EXPECT_TRUE(admits_prefetch(inst, 0, 3, cfg));   // 5 vs .4
    EXPECT_FALSE(admits_prefetch(inst, 3, 0, cfg));  // .4 vs 5
  }
}

// ---- Maintained victim order vs per-call ranking --------------------------
//
// A cache keyed for the engine's sub-arbitration hands admission and
// demand arbitration its maintained (sub, id) order; a cache keyed some
// other way makes them build that order per call. Both must pick exactly
// the victims repeated choose_victim + removal picks.

struct OrderCase {
  std::size_t capacity;
  bool dense;  // every item positive-Pr: the zero-Pr pool is empty
};

// Random instance over `n` items with ties in P and r; sparse rows keep
// four positive entries.
Instance tie_heavy_instance(Rng& rng, std::size_t n, bool dense) {
  Instance inst;
  inst.P.assign(n, 0.0);
  inst.r.resize(n);
  for (double& x : inst.r) x = static_cast<double>(1u << rng.next_below(3));
  double mass = 0.0;
  for (std::size_t k = 0; k < (dense ? n : 4); ++k) {
    const std::size_t i = dense ? k : rng.next_below(n);
    inst.P[i] = static_cast<double>(1 + rng.next_below(2));
  }
  for (const double p : inst.P) mass += p;
  for (double& p : inst.P) p /= mass;
  inst.v = rng.uniform(1.0, 12.0);
  return inst;
}

// The first `k` victims of repeated minimal-Pr extraction.
std::vector<ItemId> reference_victims(InstanceView inst,
                                      std::vector<ItemId> cached,
                                      const FreqTracker& freq,
                                      const ArbitrationConfig& cfg,
                                      std::size_t k) {
  std::vector<ItemId> out;
  while (out.size() < k && !cached.empty()) {
    const ItemId d = choose_victim(inst, cached, &freq, cfg);
    out.push_back(d);
    cached.erase(std::find(cached.begin(), cached.end(), d));
  }
  return out;
}

TEST(MaintainedVictimOrder, MatchesPerCallRankingForEverySubMode) {
  const std::size_t n = 16;
  const OrderCase cases[] = {{1, false}, {6, false}, {12, false},
                             {6, true}, {12, true}};
  for (const SubArbitration sub :
       {SubArbitration::None, SubArbitration::LFU, SubArbitration::DS}) {
    for (const bool strict : {false, true}) {
      for (const PrefetchPolicy policy :
           {PrefetchPolicy::KP, PrefetchPolicy::SKP,
            PrefetchPolicy::Perfect}) {
        for (const OrderCase& oc : cases) {
          SCOPED_TRACE(::testing::Message()
                       << to_string(sub) << " strict=" << strict << ' '
                       << to_string(policy) << " capacity=" << oc.capacity
                       << " dense=" << oc.dense);
          EngineConfig ecfg;
          ecfg.policy = policy;
          ecfg.arbitration.sub = sub;
          ecfg.arbitration.strict_ties = strict;
          const PrefetchEngine engine(ecfg);
          Rng rng(97 + oc.capacity);
          std::size_t evictions = 0;
          for (int trial = 0; trial < 60; ++trial) {
            const Instance inst = tie_heavy_instance(rng, n, oc.dense);
            FreqTracker freq(n);
            // `kept` maintains the order for `sub`; `other` is keyed for a
            // different sub mode, so the engine ranks it per call.
            SlotCache kept(n, oc.capacity);
            SlotCache other(n, oc.capacity);
            kept.key_order(sub, &freq, inst.r);
            other.key_order(sub == SubArbitration::None
                                ? SubArbitration::LFU
                                : SubArbitration::None,
                            &freq, inst.r);
            while (!kept.full()) {
              const auto i = static_cast<ItemId>(rng.next_below(n));
              if (kept.contains(i)) continue;
              kept.insert(i);
              other.insert(i);
            }
            for (int a = 0; a < 24; ++a) {
              const auto i = static_cast<ItemId>(rng.next_below(n / 2));
              kept.record_access(freq, i);
            }
            ASSERT_TRUE(kept.order_keyed_for(sub, &freq, inst.r));
            ASSERT_FALSE(other.order_keyed_for(sub, &freq, inst.r));

            // Demand arbitration.
            const ItemId demand =
                choose_victim(inst, kept.contents(), &freq,
                              ecfg.arbitration);
            EXPECT_EQ(choose_victim(inst, kept, &freq, ecfg.arbitration),
                      demand);
            EXPECT_EQ(choose_victim(inst, other, &freq, ecfg.arbitration),
                      demand);

            // Figure-6 admission.
            std::optional<ItemId> oracle;
            if (policy == PrefetchPolicy::Perfect) {
              for (ItemId i = 0; i < static_cast<ItemId>(n); ++i) {
                if (!kept.contains(i) && inst.P[InstanceView::idx(i)] > 0) {
                  oracle = i;
                }
              }
            }
            const PrefetchPlan a =
                engine.plan_with_cache(inst, kept, &freq, oracle);
            const PrefetchPlan b =
                engine.plan_with_cache(inst, other, &freq, oracle);
            EXPECT_EQ(a.fetch, b.fetch);
            EXPECT_EQ(a.evict, b.evict);
            std::vector<ItemId> evicted = a.evict;
            std::vector<ItemId> expected = reference_victims(
                inst,
                std::vector<ItemId>(kept.contents().begin(),
                                    kept.contents().end()),
                freq, ecfg.arbitration, a.evict.size());
            std::sort(evicted.begin(), evicted.end());
            std::sort(expected.begin(), expected.end());
            EXPECT_EQ(evicted, expected);
            evictions += a.evict.size();
          }
          EXPECT_GT(evictions, 0u);  // contested admissions were exercised
        }
      }
    }
  }
}

TEST(MaintainedVictimOrder, DenseRowExhaustsZeroPoolAndRanksByPr) {
  // Every cached item has positive Pr, so admission must rank them.
  // Profits: 4.5, 6, .75, .4, .05; cached {1, 2, 3}; KP proposes {0, 4}.
  // Item 0 (4.5) displaces the minimal-Pr item 3 (.4); item 4 (.05)
  // then loses to the next victim, item 2 (.75).
  Instance inst = testing::small_instance();
  inst.P.push_back(0.0);
  inst.r.push_back(1.0);
  inst.P[0] = 0.45;  // keep the row a distribution
  inst.P.back() = 0.05;
  FreqTracker freq(5);
  SlotCache cache(5, 3);
  cache.key_order(SubArbitration::LFU, &freq, inst.r);
  for (const ItemId i : {1, 2, 3}) cache.insert(i);
  EngineConfig ecfg;
  ecfg.policy = PrefetchPolicy::KP;
  ecfg.arbitration.sub = SubArbitration::LFU;
  const PrefetchEngine engine(ecfg);
  const PrefetchPlan plan = engine.plan_with_cache(inst, cache, &freq);
  EXPECT_EQ(plan.fetch, std::vector<ItemId>{0});
  EXPECT_EQ(plan.evict, std::vector<ItemId>{3});
  EXPECT_EQ(choose_victim(inst, cache, &freq, ecfg.arbitration), 3);
}

}  // namespace
}  // namespace skp
