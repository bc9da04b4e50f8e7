#include "sim/prefetch_cache.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "core/lookahead.hpp"
#include "predict/dependency_graph.hpp"
#include "predict/lz78_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/ppm_predictor.hpp"
#include "sim/request_step.hpp"

namespace skp {

const char* to_string(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::Oracle: return "oracle";
    case PredictorKind::Markov1: return "markov1";
    case PredictorKind::Ppm: return "ppm";
    case PredictorKind::DependencyWindow: return "depgraph";
    case PredictorKind::Lz78: return "lz78";
  }
  return "?";
}

std::unique_ptr<Predictor> make_runtime_predictor(PredictorKind kind,
                                                  std::size_t n_items,
                                                  double markov_prior) {
  switch (kind) {
    case PredictorKind::Markov1:
      return std::make_unique<MarkovPredictor>(n_items, markov_prior);
    case PredictorKind::Lz78:
      return std::make_unique<Lz78Predictor>(n_items);
    case PredictorKind::Ppm:
      return std::make_unique<PpmPredictor>(n_items, /*order=*/2);
    case PredictorKind::DependencyWindow:
      return std::make_unique<DependencyGraph>(n_items, /*window=*/2);
    default:
      SKP_REQUIRE(false,
                  "this pipeline needs a learned predictor "
                  "(markov1 | lz78 | ppm | depgraph)");
  }
  return nullptr;
}

namespace {

EngineConfig lane_engine_config(const PrefetchCacheConfig& c) {
  EngineConfig ecfg;
  ecfg.policy = c.policy;
  ecfg.delta_rule = c.delta_rule;
  ecfg.arbitration.sub = c.sub;
  ecfg.arbitration.strict_ties = c.strict_ties;
  ecfg.min_profit_threshold = c.min_profit_threshold;
  // Monte-Carlo hot loop: skip the per-round Eq.-(9) diagnostic no
  // counter consumes.
  ecfg.evaluate_plan_g = false;
  return ecfg;
}

// One experiment of the prefetch_cache runner: everything a run keeps
// across requests, boxed so k lanes can advance in lockstep over one
// shared source. A solo run is a batch of one lane.
struct Lane {
  Lane(const PrefetchCacheConfig& c, std::size_t n,
       std::span<const double> r, PrefetchCacheResult* res)
      : cfg(c),
        engine(lane_engine_config(c)),
        client(n, c.cache_size),
        predictor(c.predictor == PredictorKind::Oracle
                      ? nullptr
                      : make_runtime_predictor(c.predictor, n,
                                               /*markov_prior=*/0.05)),
        result(res) {
    client.cache.key_order(c.sub, &client.freq, r);
    // Cross-request memoization (core/plan_cache.hpp). A tier's key sees
    // the state and the cache or candidate set; context it cannot see
    // rules the tier out, since a generation bumped every request never
    // hits:
    //   plans      — LFU/DS scores move after every request, and so
    //                does a learned row: oracle lanes where the engine's
    //                plans_tier_applies();
    //   selections — a learned row changes every observation (the solve
    //                never reads frequencies): oracle lanes;
    //   canon      — needs the raw transition row, which lookahead
    //                blends widen: oracle one-step lanes (one table,
    //                shared by the runner).
    // Drift changepoints bump every tier (see the request loop).
    if (c.use_plan_cache && !predictor) {
      if (engine.plans_tier_applies()) {
        plans.emplace(engine.config_digest(), c.plan_cache_capacity,
                      /*doorkeeper=*/true);
      }
      selections.emplace(engine.config_digest(), c.plan_cache_capacity);
    }
  }

  // Memoized oracle one-step lanes plan through plan_with_cache_batch
  // with the shared canonical-order table; every other lane plans its
  // own row through plan_with_cache.
  bool batched() const {
    return cfg.use_plan_cache && !predictor && cfg.lookahead_horizon <= 1;
  }

  const PrefetchCacheConfig& cfg;
  PrefetchEngine engine;
  SlotClient client;
  std::unique_ptr<Predictor> predictor;
  PlanScratch scratch;
  PrefetchPlan plan;
  std::optional<PlanCache> plans;
  std::optional<PlanCache> selections;
  PrefetchCacheResult* result;
};

// The prefetch_cache runner: k lanes sharing one workload (source
// config, seed, request count, drift schedule) over the caller's source
// and walk stream. The source is stepped once per request for the whole
// batch; lanes differ in cache size, policy, arbitration, thresholds,
// predictor, lookahead or plan-cache settings.
std::vector<PrefetchCacheResult> run_lanes(
    std::span<const PrefetchCacheConfig> configs, MarkovSource& source,
    Rng& walk_rng) {
  std::vector<PrefetchCacheResult> results(configs.size());
  if (configs.empty()) return results;
  const PrefetchCacheConfig& c0 = configs.front();
  for (const PrefetchCacheConfig& c : configs) {
    SKP_REQUIRE(c.cache_size >= 1, "cache_size must be >= 1");
    SKP_REQUIRE(c.source == c0.source && c.seed == c0.seed &&
                    c.requests == c0.requests &&
                    c.drift_period == c0.drift_period,
                "batch lanes must share the workload "
                "(source/seed/requests/drift)");
  }
  const std::size_t n = source.n_states();

  std::deque<Lane> lanes;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    lanes.emplace_back(configs[i], n, source.retrieval_times(), &results[i]);
  }
  // The canonical-order table depends only on the (shared) source rows,
  // so one table serves every batched lane.
  std::optional<CanonicalOrderTable> canon;
  // Batched lanes sharing an engine config form one group with a
  // persistent PlanBatchLane row each (stable pointers; only state_key
  // changes per request).
  struct Group {
    const PrefetchEngine* engine;
    bool perfect;
    std::vector<PrefetchEngine::PlanBatchLane> rows;
  };
  std::vector<Group> groups;
  for (Lane& lane : lanes) {
    if (!lane.batched()) continue;
    if (!canon) canon.emplace(n);
    PrefetchEngine::PlanBatchLane row;
    row.cache = &lane.client.cache;
    row.freq = &lane.client.freq;
    row.memo.plans = lane.plans ? &*lane.plans : nullptr;
    row.memo.selections = &*lane.selections;
    row.memo.canon = &*canon;
    row.scratch = &lane.scratch;
    row.out = &lane.plan;
    Group* group = nullptr;
    for (Group& g : groups) {
      if (g.engine->config_digest() == lane.engine.config_digest()) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(
          {&lane.engine, lane.cfg.policy == PrefetchPolicy::Perfect, {}});
      group = &groups.back();
    }
    group->rows.push_back(row);
  }

  // Phase-shift stream, derived from the config seed (not from walk_rng,
  // so drifting and static runs share the walk stream between
  // changepoints and caller-supplied sources stay usable).
  Rng drift_rng = Rng(c0.seed).split(kPrefetchCacheDriftSalt);

  std::size_t state = source.current_state();
  for (Lane& lane : lanes) {
    if (lane.predictor) lane.predictor->observe(static_cast<ItemId>(state));
  }

  for (std::size_t req = 0; req < c0.requests; ++req) {
    if (c0.drift_period != 0 && req != 0 && req % c0.drift_period == 0) {
      // Changepoint: the transition rows every memoized plan, solver
      // selection and canonical order was computed from are gone.
      source.redraw_transitions(c0.source, drift_rng);
      for (Lane& lane : lanes) {
        if (lane.plans) lane.plans->bump_generation();
        if (lane.selections) lane.selections->bump_generation();
      }
      if (canon) canon->invalidate_all();
    }

    // What an oracle prefetcher knows in the current state: P is the
    // sparse transition row, and the source's successor list (ascending,
    // exactly the positive entries) doubles as the engine's
    // candidate-support hint. The source then decides the next request;
    // only the Perfect oracle may look at it.
    const InstanceView inst = source.view_at(state);
    const std::span<const ItemId> positive_hint = source.successors(state);
    const auto next = static_cast<ItemId>(source.step(walk_rng));

    for (Group& g : groups) {
      for (PrefetchEngine::PlanBatchLane& row : g.rows) {
        row.memo.state_key = state;
      }
      g.engine->plan_with_cache_batch(
          inst, g.rows,
          g.perfect ? std::optional<ItemId>(next) : std::nullopt,
          positive_hint);
    }

    for (Lane& lane : lanes) {
      const PrefetchCacheConfig& c = lane.cfg;
      InstanceView row = inst;
      if (!lane.batched()) {
        std::span<const ItemId> hint = positive_hint;
        if (lane.predictor) {
          lane.predictor->predict_into(lane.scratch.P);
          for (double& p : lane.scratch.P) {
            if (p < c.predictor_min_prob) p = 0.0;
          }
          row.P = lane.scratch.P;
          hint = {};  // dense support
        } else if (c.lookahead_horizon > 1) {
          horizon_probabilities_into(source, state, c.lookahead_horizon,
                                     c.lookahead_decay, lane.scratch.P);
          row.P = lane.scratch.P;
          hint = {};  // blended rows widen the support
        }
        PlanMemo memo;
        memo.plans = lane.plans ? &*lane.plans : nullptr;
        memo.selections = lane.selections ? &*lane.selections : nullptr;
        memo.state_key = state;
        std::optional<ItemId> oracle;
        if (c.policy == PrefetchPolicy::Perfect) oracle = next;
        lane.engine.plan_with_cache(row, lane.client.cache,
                                    &lane.client.freq, memo, lane.scratch,
                                    lane.plan, oracle, hint);
      }

      const bool counted = req >= c.warmup;
      if (lane.predictor) lane.predictor->observe(next);
      const double T = monte_carlo_step(
          lane.client, row, lane.plan, next,
          lane.engine.config().arbitration, lane.result->metrics, counted,
          [&] {
            // "Demand-fetched item, however, must have a victim":
            // minimal-Pr with the probabilities now in force (the new
            // state's row). `row` is not read past this point, so its P
            // buffer is free to take the new prediction.
            InstanceView next_row =
                source.view_at(static_cast<std::size_t>(next));
            if (lane.predictor) {
              lane.predictor->predict_into(lane.scratch.P);
              next_row.P = lane.scratch.P;
            }
            return next_row;
          });
      if (counted && T > source.viewing_time(state)) {
        ++lane.result->over_viewing_time;
      }
    }

    state = static_cast<std::size_t>(next);
  }

  for (Lane& lane : lanes) {
    if (lane.plans) lane.result->plan_cache.plans = lane.plans->stats();
    if (lane.selections) {
      lane.result->plan_cache.selections = lane.selections->stats();
    }
  }
  return results;
}

// The seed layout of the default entry points: the source is built from
// Rng(seed), the walk is its kPrefetchCacheWalkSalt child, and the walk
// starts in state 0.
std::vector<PrefetchCacheResult> run_seeded(
    std::span<const PrefetchCacheConfig> configs) {
  if (configs.empty()) return {};
  Rng build_rng(configs.front().seed);
  MarkovSource source(configs.front().source, build_rng);
  Rng walk_rng = build_rng.split(kPrefetchCacheWalkSalt);
  source.teleport(0);
  return run_lanes(configs, source, walk_rng);
}

}  // namespace

PrefetchCacheResult run_prefetch_cache(const PrefetchCacheConfig& cfg) {
  return run_seeded({&cfg, 1}).front();
}

PrefetchCacheResult run_prefetch_cache(const PrefetchCacheConfig& cfg,
                                       MarkovSource& source, Rng& walk_rng) {
  return run_lanes({&cfg, 1}, source, walk_rng).front();
}

std::vector<PrefetchCacheResult> run_prefetch_cache_batch(
    std::span<const PrefetchCacheConfig> configs) {
  return run_seeded(configs);
}

PrefetchCacheResult run_prefetch_cache_sized(
    const SizedExperimentConfig& cfg) {
  SKP_REQUIRE(cfg.capacity > 0.0, "capacity must be positive");
  Rng build_rng(cfg.seed);
  MarkovSource source(cfg.source, build_rng);
  Rng walk_rng = build_rng.split(kPrefetchCacheWalkSalt);
  source.teleport(0);
  const std::size_t n = source.n_states();

  std::vector<double> sizes(n);
  for (std::size_t i = 0; i < n; ++i) {
    sizes[i] = cfg.size_per_r > 0.0
                   ? cfg.size_per_r *
                         source.retrieval_time(static_cast<ItemId>(i))
                   : build_rng.uniform(cfg.size_lo, cfg.size_hi);
  }

  EngineConfig ecfg;
  ecfg.policy = cfg.policy;
  ecfg.delta_rule = cfg.delta_rule;
  ecfg.arbitration.sub = cfg.sub;
  ecfg.arbitration.strict_ties = cfg.strict_ties;
  ecfg.evaluate_plan_g = false;  // as in the slot runner
  const PrefetchEngine engine(ecfg);

  SizedCache cache(sizes, cfg.capacity);
  FreqTracker freq(n);
  PrefetchBook book(n);

  // Allocation-free request loop: borrowed views + recycled buffers, as in
  // the slot-cache runner above; memoization keyed by the SizedCache
  // fingerprint (oracle rows, so the canonical table always applies).
  PlanScratch scratch;
  PrefetchPlan plan;
  std::optional<PlanCache> plans;
  std::optional<PlanCache> selections;
  std::optional<CanonicalOrderTable> canon;
  if (cfg.use_plan_cache) {
    if (engine.plans_tier_applies()) {
      plans.emplace(engine.config_digest(), cfg.plan_cache_capacity,
                    /*doorkeeper=*/true);
    }
    selections.emplace(engine.config_digest(), cfg.plan_cache_capacity);
    canon.emplace(n);
  }

  PrefetchCacheResult result;
  auto& m = result.metrics;
  std::size_t state = source.current_state();

  for (std::size_t req = 0; req < cfg.requests; ++req) {
    const bool counted = req >= cfg.warmup;
    const InstanceView inst = source.view_at(state);
    const auto next = static_cast<ItemId>(source.step(walk_rng));
    std::optional<ItemId> oracle;
    if (cfg.policy == PrefetchPolicy::Perfect) oracle = next;

    PlanMemo memo;
    memo.plans = plans ? &*plans : nullptr;
    memo.selections = selections ? &*selections : nullptr;
    memo.canon = canon ? &*canon : nullptr;
    memo.state_key = state;
    engine.plan_with_sized_cache(inst, cache, &freq, memo, scratch, plan,
                                 oracle, source.successors(state));

    // Realized access time against the pre-plan cache (computed before the
    // plan executes; see monte_carlo_step).
    const double T = realized_access_time_cached(
        inst, plan.fetch, plan.evict, cache.presence(), next);

    for (const ItemId d : plan.evict) {
      if (book.evicted(d) && counted) ++m.wasted_prefetches;
      cache.erase(d);
    }
    for (const ItemId f : plan.fetch) {
      cache.insert(f);
      book.prefetched(f);
      if (counted) charge_prefetch(m, inst.r[InstanceView::idx(f)]);
    }
    if (counted) {
      account_step(m, plan, T);
      if (T > source.viewing_time(state)) ++result.over_viewing_time;
    }

    freq.record(next);
    book.requested(next);
    if (!cache.contains(next)) {
      if (counted) charge_demand(m, inst.r[InstanceView::idx(next)]);
      if (cache.cacheable(next)) {
        const InstanceView next_inst =
            source.view_at(static_cast<std::size_t>(next));
        gather_victims_by_density_into(next_inst, cache, &freq,
                                       ecfg.arbitration, cache.size_of(next),
                                       scratch.pool, scratch.victims);
        SKP_ASSERT(scratch.victims.ok);
        for (const ItemId d : scratch.victims.victims) {
          if (book.evicted(d) && counted) ++m.wasted_prefetches;
          cache.erase(d);
        }
        cache.insert(next);
      }
      // Items larger than the whole cache are served uncached.
    }
    state = static_cast<std::size_t>(next);
  }
  if (plans) result.plan_cache.plans = plans->stats();
  if (selections) result.plan_cache.selections = selections->stats();
  return result;
}

}  // namespace skp
