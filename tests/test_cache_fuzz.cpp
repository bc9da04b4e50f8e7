// Randomized differential tests: the cache substrates against trivially
// correct reference models, thousands of random operations each. The
// Zobrist content fingerprints ride along — every step checks them
// against a recompute-from-scratch model, and a fingerprint -> set map
// smoke-checks for collisions across all states the fuzz visits.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "cache/sized_cache.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace skp {
namespace {

using testing::model_fingerprint;

// Asserts fp(cache) matches the model and records the state in the
// collision map (distinct sets must never share a fingerprint).
void check_fingerprint(std::uint64_t cache_fp, const std::set<ItemId>& model,
                       std::map<std::uint64_t, std::set<ItemId>>& seen) {
  ASSERT_EQ(cache_fp, model_fingerprint(model));
  const auto [it, inserted] = seen.emplace(cache_fp, model);
  if (!inserted) {
    ASSERT_EQ(it->second, model)
        << "distinct content sets collided on fingerprint " << cache_fp;
  }
}

TEST(CacheFuzz, SlotCacheMatchesSetModel) {
  Rng rng(111);
  const std::size_t catalog = 30;
  const std::size_t capacity = 7;
  SlotCache cache(catalog, capacity);
  std::set<ItemId> model;
  std::map<std::uint64_t, std::set<ItemId>> fp_seen;
  for (int op = 0; op < 20000; ++op) {
    const auto item = static_cast<ItemId>(rng.next_below(catalog));
    switch (rng.next_below(3)) {
      case 0:  // insert if possible
        if (!model.count(item) && model.size() < capacity) {
          cache.insert(item);
          model.insert(item);
        } else {
          EXPECT_THROW(cache.insert(item), std::invalid_argument);
        }
        break;
      case 1:  // erase if present
        if (model.count(item)) {
          cache.erase(item);
          model.erase(item);
        } else {
          EXPECT_THROW(cache.erase(item), std::invalid_argument);
        }
        break;
      case 2:  // query
        EXPECT_EQ(cache.contains(item), model.count(item) > 0);
        break;
    }
    ASSERT_EQ(cache.size(), model.size());
    ASSERT_EQ(cache.full(), model.size() == capacity);
    check_fingerprint(cache.fingerprint(), model, fp_seen);
  }
  // Final contents agree as sets.
  std::set<ItemId> final_contents(cache.contents().begin(),
                                  cache.contents().end());
  EXPECT_EQ(final_contents, model);
}

TEST(CacheFuzz, SlotCacheReplacePreservesInvariants) {
  Rng rng(113);
  const std::size_t catalog = 20;
  SlotCache cache(catalog, 5);
  std::set<ItemId> model;
  // Fill.
  while (model.size() < 5) {
    const auto i = static_cast<ItemId>(rng.next_below(catalog));
    if (!model.count(i)) {
      cache.insert(i);
      model.insert(i);
    }
  }
  for (int op = 0; op < 5000; ++op) {
    const auto incoming = static_cast<ItemId>(rng.next_below(catalog));
    if (model.count(incoming)) continue;
    // Random victim from the model.
    auto it = model.begin();
    std::advance(it, static_cast<long>(rng.next_below(model.size())));
    const ItemId victim = *it;
    cache.replace(victim, incoming);
    model.erase(victim);
    model.insert(incoming);
    ASSERT_EQ(cache.size(), 5u);
    ASSERT_TRUE(cache.contains(incoming));
    ASSERT_FALSE(cache.contains(victim));
    ASSERT_EQ(cache.fingerprint(), model_fingerprint(model));
  }
}

// The victim order recomputed from scratch: cached items ascending by
// (sub-arbitration score, id).
std::vector<ItemId> reference_order(const std::set<ItemId>& model,
                                    const FreqTracker& freq,
                                    SubArbitration sub,
                                    const std::vector<double>& r) {
  std::vector<ItemId> out(model.begin(), model.end());
  std::stable_sort(out.begin(), out.end(), [&](ItemId a, ItemId b) {
    return freq.sub_score(sub, a, r[static_cast<std::size_t>(a)]) <
           freq.sub_score(sub, b, r[static_cast<std::size_t>(b)]);
  });
  return out;
}

TEST(CacheFuzz, MaintainedVictimOrderMatchesFromScratchSort) {
  const std::size_t catalog = 12;
  const std::size_t capacity = 6;
  for (const SubArbitration sub :
       {SubArbitration::None, SubArbitration::LFU, SubArbitration::DS}) {
    for (const double decay : {1.0, 0.5}) {
      SCOPED_TRACE(::testing::Message() << "sub " << static_cast<int>(sub)
                                      << " decay " << decay);
      Rng rng(4242);
      // Few distinct retrieval times, so DS scores tie often.
      std::vector<double> r(catalog);
      for (double& x : r) x = static_cast<double>(1 + rng.next_below(3));
      FreqTracker freq(catalog, decay, /*decay_interval=*/7);
      SlotCache cache(catalog, capacity);
      cache.key_order(sub, &freq, r);
      std::set<ItemId> model;
      for (int op = 0; op < 4000; ++op) {
        const auto item = static_cast<ItemId>(rng.next_below(catalog));
        switch (rng.next_below(4)) {
          case 0:  // insert (evicting a random resident when full)
            if (model.count(item)) break;
            if (model.size() == capacity) {
              auto it = model.begin();
              std::advance(it, static_cast<long>(rng.next_below(capacity)));
              cache.replace(*it, item);
              model.erase(it);
            } else {
              cache.insert(item);
            }
            model.insert(item);
            break;
          case 1:  // erase
            if (!model.count(item)) break;
            cache.erase(item);
            model.erase(item);
            break;
          default:  // access: cached or not, decay passes included
            cache.record_access(freq, item);
            break;
        }
        ASSERT_TRUE(cache.order_keyed_for(sub, &freq, r));
        ASSERT_TRUE(cache.order_consistent());
        const std::span<const ItemId> order = cache.victim_order();
        ASSERT_EQ(std::vector<ItemId>(order.begin(), order.end()),
                  reference_order(model, freq, sub, r));
      }
      if (decay < 1.0) {
        EXPECT_GT(freq.decays(), 0u);
      }
    }
  }
}

TEST(CacheFuzz, VictimOrderResyncsAfterOutsideRecordsAndReset) {
  const std::size_t catalog = 10;
  std::vector<double> r(catalog, 2.0);
  FreqTracker freq(catalog);
  SlotCache cache(catalog, 4);
  cache.key_order(SubArbitration::LFU, &freq, r);
  for (const ItemId i : {3, 1, 7, 5}) cache.insert(i);
  cache.record_access(freq, 7);
  ASSERT_TRUE(cache.order_keyed_for(SubArbitration::LFU, &freq, r));
  // A record that bypasses the cache makes the order untrusted (callers
  // then build their own) until the next record_access rebuilds it.
  freq.record(3);
  freq.record(3);
  EXPECT_FALSE(cache.order_keyed_for(SubArbitration::LFU, &freq, r));
  EXPECT_TRUE(cache.order_consistent());
  cache.record_access(freq, 1);
  ASSERT_TRUE(cache.order_keyed_for(SubArbitration::LFU, &freq, r));
  std::set<ItemId> model{1, 3, 5, 7};
  auto order = cache.victim_order();
  EXPECT_EQ(std::vector<ItemId>(order.begin(), order.end()),
            reference_order(model, freq, SubArbitration::LFU, r));
  // A churn reset (clear + FreqTracker::reset) resyncs at the next record.
  cache.clear();
  freq.reset();
  cache.insert(5);
  cache.insert(2);
  EXPECT_FALSE(cache.order_keyed_for(SubArbitration::LFU, &freq, r));
  cache.record_access(freq, 5);
  EXPECT_TRUE(cache.order_keyed_for(SubArbitration::LFU, &freq, r));
  order = cache.victim_order();
  EXPECT_EQ(std::vector<ItemId>(order.begin(), order.end()),
            (std::vector<ItemId>{2, 5}));
  // The order answers only for the keying it was built with.
  EXPECT_FALSE(cache.order_keyed_for(SubArbitration::None, &freq, r));
  EXPECT_FALSE(cache.order_keyed_for(SubArbitration::DS, &freq, r));
  FreqTracker other(catalog);
  EXPECT_FALSE(cache.order_keyed_for(SubArbitration::LFU, &other, r));
}

TEST(CacheFuzz, SizedCacheMatchesAccountingModel) {
  Rng rng(117);
  const std::size_t catalog = 25;
  std::vector<double> sizes(catalog);
  for (auto& s : sizes) s = rng.uniform(1.0, 10.0);
  const double capacity = 40.0;
  SizedCache cache(sizes, capacity);
  std::set<ItemId> model;
  std::map<std::uint64_t, std::set<ItemId>> fp_seen;
  double used = 0.0;
  for (int op = 0; op < 20000; ++op) {
    const auto item = static_cast<ItemId>(rng.next_below(catalog));
    const double sz = sizes[static_cast<std::size_t>(item)];
    if (rng.bernoulli(0.5)) {
      const bool can =
          !model.count(item) && used + sz <= capacity + 1e-12;
      if (can) {
        cache.insert(item);
        model.insert(item);
        used += sz;
      } else {
        EXPECT_THROW(cache.insert(item), std::invalid_argument);
      }
    } else {
      if (model.count(item)) {
        cache.erase(item);
        model.erase(item);
        used -= sz;
      } else {
        EXPECT_THROW(cache.erase(item), std::invalid_argument);
      }
    }
    ASSERT_NEAR(cache.used(), used, 1e-6);
    ASSERT_EQ(cache.count(), model.size());
    check_fingerprint(cache.fingerprint(), model, fp_seen);
  }
}

TEST(CacheFuzz, SizedCacheFitsConsistentWithInsert) {
  Rng rng(119);
  std::vector<double> sizes(15);
  for (auto& s : sizes) s = rng.uniform(0.5, 6.0);
  SizedCache cache(sizes, 12.0);
  for (int op = 0; op < 10000; ++op) {
    const auto item = static_cast<ItemId>(rng.next_below(15));
    if (cache.contains(item)) {
      cache.erase(item);
      continue;
    }
    if (cache.fits(item) && cache.cacheable(item)) {
      EXPECT_NO_THROW(cache.insert(item));
    } else {
      EXPECT_THROW(cache.insert(item), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace skp
