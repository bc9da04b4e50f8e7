// SessionShard / ShardedSessionStore contract tests, and the headline
// concurrency property of the million-session refactor: stepping N
// sessions from a thread pool — one worker per shard, shards touched
// only by their owner — produces bit-identical snapshot sequences to
// stepping each session alone. Read-mostly shared state (SharedCatalog)
// is the only thing the sessions have in common, so any hidden write
// through it shows up here (and as a data race under the tsan CI job).
// Sessions on one thread also share that thread's step scratch; a
// second test interleaves unlike sessions there and checks each against
// its solo run.
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "sim/catalog.hpp"
#include "sim/netsim_stepper.hpp"
#include "sim/runtime.hpp"
#include "sim/session_store.hpp"
#include "sim/skpd_protocol.hpp"
#include "util/thread_pool.hpp"

namespace skp {
namespace {

struct Counter {
  explicit Counter(int v = 0) : value(v) {}
  int value;
};

TEST(SessionShard, InsertFindEraseAndOrderedVisit) {
  SessionShard<Counter> shard;
  shard.emplace(30, 3);
  shard.emplace(10, 1);
  shard.insert(20, std::make_unique<Counter>(2));
  EXPECT_EQ(shard.size(), 3u);
  ASSERT_NE(shard.find(20), nullptr);
  EXPECT_EQ(shard.find(20)->value, 2);
  EXPECT_EQ(shard.find(99), nullptr);

  std::vector<std::uint64_t> order;
  shard.for_each([&](std::uint64_t id, Counter&) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{10, 20, 30}));

  EXPECT_TRUE(shard.erase(20));
  EXPECT_FALSE(shard.erase(20));
  EXPECT_EQ(shard.find(20), nullptr);
  EXPECT_EQ(shard.size(), 2u);

  // Duplicate ids and null sessions are contract violations.
  EXPECT_THROW(shard.emplace(10, 0), std::invalid_argument);
  EXPECT_THROW(shard.insert(77, nullptr), std::invalid_argument);
}

TEST(SessionShard, SessionAddressesStableAcrossInserts) {
  SessionShard<Counter> shard;
  Counter& first = shard.emplace(1, 41);
  for (std::uint64_t id = 2; id <= 500; ++id) shard.emplace(id, 0);
  // std::map rebalancing must never move the owned session object.
  EXPECT_EQ(&first, shard.find(1));
  EXPECT_EQ(first.value, 41);
}

TEST(ShardedSessionStore, RoutesByModuloAndSumsSizes) {
  ShardedSessionStore<Counter> store(4);
  EXPECT_EQ(store.n_shards(), 4u);
  for (std::uint64_t id = 1; id <= 40; ++id) store.emplace(id, 0);
  EXPECT_EQ(store.size(), 40u);
  for (std::uint64_t id = 1; id <= 40; ++id) {
    EXPECT_EQ(store.shard_of(id), id % 4);
    ASSERT_NE(store.find(id), nullptr);
    // The owning shard holds it; the others must not.
    for (std::size_t s = 0; s < 4; ++s) {
      EXPECT_EQ(store.shard(s).find(id) != nullptr, s == id % 4);
    }
  }
  EXPECT_TRUE(store.erase(7));
  EXPECT_EQ(store.find(7), nullptr);
  EXPECT_EQ(store.size(), 39u);
}

TEST(ShardedSessionStore, OrderedVisitIsShardCountIndependent) {
  // The drain order contract: for_each_ordered yields ascending ids no
  // matter how the ids scatter over shards.
  for (const std::size_t n_shards : {1u, 2u, 3u, 7u, 16u}) {
    ShardedSessionStore<Counter> store(n_shards);
    for (std::uint64_t id = 100; id >= 1; --id) store.emplace(id, 0);
    std::vector<std::uint64_t> order;
    store.for_each_ordered(
        [&](std::uint64_t id, Counter&) { order.push_back(id); });
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t i = 0; i < order.size(); ++i) {
      ASSERT_EQ(order[i], i + 1) << "n_shards=" << n_shards;
    }
  }
}

TEST(RecommendedShardCount, NeverExceedsSessionsAndIsPositive) {
  EXPECT_EQ(recommended_shard_count(0), 1u);
  EXPECT_EQ(recommended_shard_count(1), 1u);
  const std::size_t many = recommended_shard_count(1'000'000);
  EXPECT_GE(many, 1u);
  EXPECT_LE(many, 1'000'000u);
}

// ---------------------------------------------------------------------
// Concurrency bit-identity.

SimSpec stepper_spec(std::uint64_t seed, PredictorKind predictor) {
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.workload.kind = SimWorkloadKind::Markov;
  spec.workload.n_items = 30;
  spec.predictor = predictor;
  spec.cache_size = 6;
  spec.requests = 120;
  spec.seed = seed;
  return spec;
}

struct StepperSession {
  StepperSession(const SimSpec& spec,
                 std::shared_ptr<const SharedCatalog> catalog)
      : stepper(spec, std::move(catalog)) {}
  NetsimStepper stepper;
  std::vector<NetsimStepSnapshot> got;
};

TEST(ShardedSessionStore, ParallelShardSteppingBitIdenticalToSolo) {
  // Two spec groups (oracle sharing a master chain, learned sharing a
  // materialized script) interleaved over the id space, M sessions per
  // group, stepped to completion by one worker per shard. Every session
  // must reproduce its group's solo snapshot sequence exactly.
  const SimSpec spec_a = stepper_spec(11, PredictorKind::Oracle);
  const SimSpec spec_b = stepper_spec(12, PredictorKind::Lz78);

  auto solo_run = [](const SimSpec& spec) {
    NetsimStepper stepper(spec);
    std::vector<NetsimStepSnapshot> snaps;
    while (!stepper.done()) snaps.push_back(stepper.step());
    return snaps;
  };
  const std::vector<NetsimStepSnapshot> want_a = solo_run(spec_a);
  const std::vector<NetsimStepSnapshot> want_b = solo_run(spec_b);

  const std::shared_ptr<const SharedCatalog> cat_a =
      SharedCatalog::acquire(spec_a);
  const std::shared_ptr<const SharedCatalog> cat_b =
      SharedCatalog::acquire(spec_b);

  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kSessions = 32;
  ShardedSessionStore<StepperSession> store(kShards);
  for (std::uint64_t id = 0; id < kSessions; ++id) {
    const bool group_a = id % 2 == 0;
    store.emplace(id, group_a ? spec_a : spec_b,
                  group_a ? cat_a : cat_b);
  }

  // One worker per shard; each worker round-robins its own sessions one
  // step at a time, maximizing interleaving against the shared catalog.
  ThreadPool pool(kShards);
  std::vector<std::future<void>> done;
  for (std::size_t s = 0; s < kShards; ++s) {
    done.push_back(pool.submit([&store, s] {
      bool any = true;
      while (any) {
        any = false;
        store.shard(s).for_each([&](std::uint64_t, StepperSession& ss) {
          if (!ss.stepper.done()) {
            ss.got.push_back(ss.stepper.step());
            any = true;
          }
        });
      }
    }));
  }
  for (auto& f : done) f.get();  // rethrows worker exceptions

  std::size_t visited = 0;
  store.for_each_ordered([&](std::uint64_t id, StepperSession& ss) {
    const auto& want = id % 2 == 0 ? want_a : want_b;
    ASSERT_EQ(ss.got.size(), want.size()) << "session " << id;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(ss.got[i], want[i]) << "session " << id << " step " << i;
    }
    ++visited;
  });
  EXPECT_EQ(visited, kSessions);
}

TEST(NetsimStepper, InterleavedStepsOnOneThreadMatchSoloRuns) {
  // Every stepper on a thread borrows the same planning scratch, plan
  // and predictor row for the length of a step. Interleave sessions that
  // size those buffers differently (catalogs of 20, 100 and 300 items),
  // fill them differently (oracle rows, degraded copies, three learned
  // predictors) and plan differently (KP, SKP, Perfect): each must still
  // end exactly where a solo run_sim of its spec does.
  std::vector<SimSpec> specs;
  std::uint64_t seed = 40;
  for (const std::size_t n : {20u, 100u, 300u}) {
    for (const PredictorKind predictor :
         {PredictorKind::Oracle, PredictorKind::Markov1, PredictorKind::Lz78,
          PredictorKind::Ppm}) {
      for (const PrefetchPolicy policy :
           {PrefetchPolicy::KP, PrefetchPolicy::SKP,
            PrefetchPolicy::Perfect}) {
        SimSpec spec = stepper_spec(++seed, predictor);
        spec.workload.n_items = n;
        spec.cache_size = n / 5;
        spec.policy = policy;
        spec.requests = 60;
        if (predictor == PredictorKind::Oracle) {
          // A touchy controller, so degraded row copies are planned on.
          spec.overload.enabled = true;
          spec.overload.window = 4;
          spec.overload.degrade_ratio = 1.05;
          spec.overload.recover_ratio = 1.0;
          spec.overload.headroom = 0.01;
        }
        specs.push_back(spec);
      }
    }
  }

  std::vector<std::unique_ptr<NetsimStepper>> steppers;
  for (const SimSpec& spec : specs) {
    steppers.push_back(std::make_unique<NetsimStepper>(spec));
  }
  bool any = true;
  while (any) {
    any = false;
    for (auto& stepper : steppers) {
      if (stepper->done()) continue;
      stepper->step();
      any = true;
    }
  }

  bool degraded = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SimResult got = steppers[i]->result();
    EXPECT_EQ(encode_sim_result(got), encode_sim_result(run_sim(specs[i])))
        << "spec " << i;
    degraded = degraded || got.overload.degraded_requests > 0;
  }
  EXPECT_TRUE(degraded) << "no session planned on a degraded row";
}

TEST(SharedCatalog, InternsOneGroupPerSpec) {
  const SimSpec spec_a = stepper_spec(21, PredictorKind::Lz78);
  const SimSpec spec_b = stepper_spec(22, PredictorKind::Lz78);
  const std::size_t before = SharedCatalog::interned_groups();

  const auto cat_a1 = SharedCatalog::acquire(spec_a);
  const auto cat_a2 = SharedCatalog::acquire(spec_a);
  const auto cat_b = SharedCatalog::acquire(spec_b);
  EXPECT_EQ(cat_a1.get(), cat_a2.get());  // same group, same object
  EXPECT_NE(cat_a1.get(), cat_b.get());
  EXPECT_EQ(SharedCatalog::interned_groups(), before + 2);

  // A learned-predictor swap does not split a group: the grounding
  // depends on the workload/seed/link, not on who predicts over it.
  // (Oracle mode IS keyed separately — it grounds a master chain
  // instead of a materialized script.)
  const auto cat_a3 =
      SharedCatalog::acquire(stepper_spec(21, PredictorKind::Ppm));
  EXPECT_EQ(cat_a1.get(), cat_a3.get());
}

}  // namespace
}  // namespace skp
