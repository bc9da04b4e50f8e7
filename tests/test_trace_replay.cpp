#include "sim/trace_replay.hpp"

#include <gtest/gtest.h>

#include "sim/runtime.hpp"
#include "workload/markov_source.hpp"
#include "workload/request_stream.hpp"

namespace skp {
namespace {

// Records a trace from a Markov source so replay sees learnable structure.
Trace markov_trace(std::size_t n_states, std::size_t length,
                   std::uint64_t seed) {
  Rng build(seed);
  MarkovSourceConfig cfg;
  cfg.n_states = n_states;
  cfg.out_degree_lo = 3;
  cfg.out_degree_hi = 6;
  MarkovSource src(cfg, build);
  src.teleport(0);
  Trace trace(n_states,
              std::vector<double>(src.retrieval_times().begin(),
                                  src.retrieval_times().end()));
  Rng walk = build.split(2);
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t s = src.current_state();
    const double v = src.viewing_time(s);
    const auto next = static_cast<ItemId>(src.step(walk));
    trace.append(next, v);
  }
  return trace;
}

TEST(TraceReplay, RejectsEmptyTraceAndOracle) {
  Trace empty(4, {1.0, 2.0, 3.0, 4.0});
  EXPECT_THROW(replay_trace(empty, {}), std::invalid_argument);
  const Trace t = markov_trace(10, 50, 1);
  TraceReplayConfig cfg;
  cfg.predictor = PredictorKind::Oracle;
  EXPECT_THROW(replay_trace(t, cfg), std::invalid_argument);
}

TEST(TraceReplay, CountsEveryRequest) {
  const Trace t = markov_trace(15, 500, 2);
  const SimMetrics m = replay_trace(t, {});
  EXPECT_EQ(m.requests, 500u);
}

TEST(TraceReplay, WarmupExcluded) {
  const Trace t = markov_trace(15, 500, 3);
  TraceReplayConfig cfg;
  cfg.warmup = 100;
  EXPECT_EQ(replay_trace(t, cfg).requests, 400u);
}

TEST(TraceReplay, DeterministicReplay) {
  const Trace t = markov_trace(20, 800, 4);
  const SimMetrics a = replay_trace(t, {});
  const SimMetrics b = replay_trace(t, {});
  EXPECT_DOUBLE_EQ(a.mean_access_time(), b.mean_access_time());
  EXPECT_EQ(a.hits, b.hits);
}

TEST(TraceReplay, PrefetchingBeatsDemandOnLearnableTrace) {
  const Trace t = markov_trace(25, 4000, 5);
  TraceReplayConfig skp_cfg;
  skp_cfg.warmup = 500;  // let the predictor learn
  TraceReplayConfig none_cfg = skp_cfg;
  none_cfg.policy = PrefetchPolicy::None;
  const double t_skp = replay_trace(t, skp_cfg).mean_access_time();
  const double t_none = replay_trace(t, none_cfg).mean_access_time();
  EXPECT_LT(t_skp, t_none);
}

TEST(TraceReplay, RoundTripThroughDiskGivesSameResult) {
  const Trace t = markov_trace(12, 600, 6);
  const std::string path = ::testing::TempDir() + "/replay_trace.txt";
  t.save_file(path);
  const Trace loaded = Trace::load_file(path);
  const SimMetrics a = replay_trace(t, {});
  const SimMetrics b = replay_trace(loaded, {});
  EXPECT_DOUBLE_EQ(a.mean_access_time(), b.mean_access_time());
}

TEST(TraceReplay, PredictorKindsAllRun) {
  const Trace t = markov_trace(15, 600, 7);
  for (const auto kind :
       {PredictorKind::Markov1, PredictorKind::Ppm,
        PredictorKind::DependencyWindow}) {
    TraceReplayConfig cfg;
    cfg.predictor = kind;
    const SimMetrics m = replay_trace(t, cfg);
    EXPECT_EQ(m.requests, 600u) << to_string(kind);
  }
}

TEST(TraceReplay, PlanCacheOnOffBitIdentical) {
  // Replay plans are never memoized (an always-learning predictor makes
  // every plan depend on the whole history), so the spec's plan-cache
  // switch leaves a trace_replay run exactly as it was, and it reports no
  // memo counters either way.
  SimSpec on;
  on.driver = SimDriverKind::TraceReplay;
  on.workload.n_items = 20;
  on.requests = 1200;
  on.seed = 9;
  on.predictor = PredictorKind::Markov1;
  SimSpec off = on;
  off.use_plan_cache = false;
  const SimResult ra = run_sim(on);
  const SimResult rb = run_sim(off);
  const SimMetrics& a = ra.metrics;
  const SimMetrics& b = rb.metrics;
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.demand_fetches, b.demand_fetches);
  EXPECT_EQ(a.prefetch_fetches, b.prefetch_fetches);
  EXPECT_EQ(a.wasted_prefetches, b.wasted_prefetches);
  EXPECT_EQ(a.solver_nodes, b.solver_nodes);
  EXPECT_DOUBLE_EQ(a.mean_access_time(), b.mean_access_time());
  EXPECT_DOUBLE_EQ(a.network_time, b.network_time);
  EXPECT_EQ(ra.plan_cache.plans.lookups(), 0u);
  EXPECT_EQ(ra.plan_cache.selections.lookups(), 0u);
}

TEST(TraceReplay, BiggerCacheHelps) {
  const Trace t = markov_trace(25, 3000, 8);
  TraceReplayConfig small;
  small.cache_size = 3;
  TraceReplayConfig large;
  large.cache_size = 20;
  EXPECT_LT(replay_trace(t, large).mean_access_time(),
            replay_trace(t, small).mean_access_time());
}

}  // namespace
}  // namespace skp
