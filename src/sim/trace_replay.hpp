// Trace-driven policy evaluation.
//
// Replays a recorded access trace (workload/trace.hpp) through the
// prefetch+cache pipeline. Unlike the Fig.-7 simulator there is no oracle:
// next-access probabilities come from an online-learned predictor, which
// is exactly the deployment configuration the paper's Section 6 sketches
// ("One of the models proposed in the literature might serve the purpose
// of providing this knowledge"). Every policy sees the identical request
// sequence, so comparisons are paired.
#pragma once

#include "core/prefetch_engine.hpp"
#include "sim/metrics.hpp"
#include "sim/prefetch_cache.hpp"  // PredictorKind
#include "workload/trace.hpp"

namespace skp {

struct TraceReplayConfig {
  std::size_t cache_size = 10;
  PrefetchPolicy policy = PrefetchPolicy::SKP;
  SubArbitration sub = SubArbitration::DS;
  DeltaRule delta_rule = DeltaRule::ExactComplement;
  PredictorKind predictor = PredictorKind::Markov1;  // Oracle is invalid
  double predictor_min_prob = 0.01;
  double min_profit_threshold = 0.0;
  std::size_t warmup = 0;  // leading requests excluded from metrics
};

// Replays `trace` and returns the aggregate metrics. Throws when the
// config asks for the oracle predictor (a trace carries no ground-truth
// probabilities) or the trace is empty.
SimMetrics replay_trace(const Trace& trace, const TraceReplayConfig& cfg);

}  // namespace skp
