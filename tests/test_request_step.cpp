// The slot-cache request step (sim/request_step.hpp) and its
// wasted-prefetch rule: a prefetched item that leaves the cache before
// its first request is a wasted prefetch, counted once.
#include "sim/request_step.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "sim/netsim.hpp"

namespace skp {
namespace {

PrefetchPlan plan_of(std::vector<ItemId> fetch, std::vector<ItemId> evict) {
  PrefetchPlan plan;
  plan.fetch = std::move(fetch);
  plan.evict = std::move(evict);
  return plan;
}

bool always_lands(ItemId) { return true; }

// Five items, P = 0 everywhere: every demand victim is the lowest id.
struct StepFixture {
  std::vector<double> P = std::vector<double>(5, 0.0);
  std::vector<double> r = {3.0, 1.0, 4.0, 1.5, 9.0};
  ArbitrationConfig arb;
  SlotClient client{5, 2};
  SimMetrics m;

  InstanceView row() const { return InstanceView(P, r, 0.0); }
  bool serve(ItemId item) {
    return serve_request(client, item, r, arb, m, /*counted=*/true,
                         [&] { return row(); });
  }
};

TEST(PrefetchBook, EvictionBeforeFirstRequestCountsOnce) {
  PrefetchBook book(3);
  book.prefetched(1);
  EXPECT_TRUE(book.evicted(1));
  EXPECT_FALSE(book.evicted(1));
  EXPECT_FALSE(book.evicted(0));  // never prefetched

  // Through the kernel: prefetch 0 and 1, then a demand miss evicts the
  // unrequested 0 (lowest id under an all-zero row), and a plan evicts 1.
  StepFixture f;
  commit_plan(f.client, plan_of({0, 1}, {}), f.r, f.m, true, always_lands);
  EXPECT_FALSE(f.serve(2));
  EXPECT_FALSE(f.client.cache.contains(0));
  EXPECT_EQ(f.m.wasted_prefetches, 1u);
  commit_plan(f.client, plan_of({3}, {1}), f.r, f.m, true, always_lands);
  EXPECT_EQ(f.m.wasted_prefetches, 2u);
  EXPECT_EQ(f.m.prefetch_fetches, 3u);
  EXPECT_EQ(f.m.demand_fetches, 1u);
}

TEST(PrefetchBook, RequestedThenEvictedCountsZero) {
  PrefetchBook book(3);
  book.prefetched(2);
  book.requested(2);
  EXPECT_FALSE(book.evicted(2));

  StepFixture f;
  commit_plan(f.client, plan_of({0, 1}, {}), f.r, f.m, true, always_lands);
  EXPECT_TRUE(f.serve(0));
  EXPECT_TRUE(f.serve(1));
  // Both residents were used; the misses that evict them waste nothing.
  EXPECT_FALSE(f.serve(3));
  EXPECT_FALSE(f.serve(4));
  EXPECT_FALSE(f.client.cache.contains(0));
  EXPECT_FALSE(f.client.cache.contains(1));
  EXPECT_EQ(f.m.wasted_prefetches, 0u);
  EXPECT_EQ(f.m.demand_fetches, 2u);
}

TEST(PrefetchBook, AbandonedPrefetchRollbackCountsZero) {
  PrefetchBook book(3);
  book.prefetched(1);
  book.dropped(1);
  EXPECT_FALSE(book.evicted(1));

  // An abandoned transfer releases its slot; its fetch is still charged.
  StepFixture f;
  commit_plan(f.client, plan_of({0, 1}, {}), f.r, f.m, true,
              [](ItemId item) { return item != 1; });
  EXPECT_TRUE(f.client.cache.contains(0));
  EXPECT_FALSE(f.client.cache.contains(1));
  EXPECT_EQ(f.m.prefetch_fetches, 2u);
  EXPECT_EQ(f.m.network_time, 3.0 + 1.0);
  EXPECT_FALSE(f.serve(1));  // falls back to a demand fetch
  EXPECT_EQ(f.m.wasted_prefetches, 0u);
}

TEST(PrefetchBook, NetsimCancelCountsOnce) {
  // Cycle 1 prefetches items 1 and 2 and requests 1 (a hit); cycle 2
  // queues a prefetch of 4 behind the in-flight 2, then misses on 3. With
  // cancellation the queued 4 leaves unrequested: one wasted prefetch,
  // and its fetch is refunded. Without, nothing is wasted.
  for (const bool cancel : {false, true}) {
    SCOPED_TRACE(cancel ? "cancel" : "keep");
    NetConfig net;
    net.cancel_pending_on_demand = cancel;
    EngineConfig ecfg;
    ecfg.policy = PrefetchPolicy::SKP;
    ClientSession s(ServerCatalog{{3.0, 1.0, 10.0, 2.0, 5.0}}, net, ecfg, 5);
    const std::vector<double> P1{0.0, 0.6, 0.4, 0.0, 0.0};
    EXPECT_EQ(s.request(1, 2.0, P1), 0.0);
    const std::vector<double> P2{0.0, 0.0, 0.0, 0.0, 1.0};
    s.request(3, 1.0, P2);
    EXPECT_EQ(s.metrics().wasted_prefetches, cancel ? 1u : 0u);
    EXPECT_EQ(s.metrics().prefetch_fetches, cancel ? 2u : 3u);
    EXPECT_EQ(s.cache().contains(4), !cancel);
  }
}

}  // namespace
}  // namespace skp
