#include "sim/trace_replay.hpp"

#include "sim/request_step.hpp"

namespace skp {

SimMetrics replay_trace(const Trace& trace, const TraceReplayConfig& cfg) {
  SKP_REQUIRE(!trace.empty(), "cannot replay an empty trace");
  SKP_REQUIRE(cfg.cache_size >= 1, "cache_size must be >= 1");
  SKP_REQUIRE(cfg.predictor != PredictorKind::Oracle,
              "trace replay has no oracle probabilities");
  const std::size_t n = trace.n_items();

  EngineConfig ecfg;
  ecfg.policy = cfg.policy;
  ecfg.delta_rule = cfg.delta_rule;
  ecfg.arbitration.sub = cfg.sub;
  ecfg.min_profit_threshold = cfg.min_profit_threshold;
  const PrefetchEngine engine(ecfg);

  SlotClient client(n, cfg.cache_size);
  client.cache.key_order(cfg.sub, &client.freq, trace.retrieval_times());
  auto predictor =
      make_runtime_predictor(cfg.predictor, n, /*markov_prior=*/0.05);

  SimMetrics m;
  // Allocation-free replay loop: the instance borrows the trace's
  // retrieval-time catalog and the recycled predictor buffer. Plans are
  // not memoized: they depend on the whole observation history, which no
  // memo key can see.
  PlanScratch scratch;
  PrefetchPlan plan;

  for (std::size_t idx = 0; idx < trace.size(); ++idx) {
    const TraceRecord& rec = trace.records()[idx];
    predictor->predict_into(scratch.P);
    for (double& p : scratch.P) {
      if (p < cfg.predictor_min_prob) p = 0.0;
    }
    const InstanceView inst(scratch.P, trace.retrieval_times(),
                            rec.viewing_time);
    engine.plan_with_cache(inst, client.cache, &client.freq, PlanMemo{},
                           scratch, plan);

    predictor->observe(rec.item);
    monte_carlo_step(client, inst, plan, rec.item, ecfg.arbitration, m,
                     idx >= cfg.warmup, [&] {
                       // Victim chosen with the *post-observation* belief.
                       // `inst` is not read past this point, so its P
                       // buffer can take the new prediction in place.
                       predictor->predict_into(scratch.P);
                       return InstanceView(scratch.P,
                                           trace.retrieval_times(),
                                           rec.viewing_time);
                     });
  }
  return m;
}

}  // namespace skp
