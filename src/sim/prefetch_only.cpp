#include "sim/prefetch_only.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "core/access_model.hpp"
#include "workload/request_stream.hpp"

namespace skp {

namespace {

// Runs `count` iterations into `result` using `rng`.
void run_block(const PrefetchOnlyConfig& cfg, std::size_t count, Rng& rng,
               PrefetchOnlyResult& result) {
  EngineConfig ecfg;
  ecfg.policy = cfg.policy;
  ecfg.delta_rule = cfg.delta_rule;
  const PrefetchEngine engine(ecfg);

  // Every iteration redraws (P, r, v) into the same storage and plans
  // through the same scratch buffers — the block never allocates after
  // the first iteration.
  Instance inst;
  inst.P.resize(cfg.n_items);
  inst.r.resize(cfg.n_items);
  PlanScratch scratch;
  PrefetchPlan plan;

  // Residual transfer time intruding into the next viewing window
  // (stretch_intrudes extension only; stays 0 under the paper protocol).
  double carry = 0.0;

  for (std::size_t it = 0; it < count; ++it) {
    // Step 1: generate P, r, v.
    generate_probabilities_into(cfg.n_items, cfg.method, rng, inst.P,
                                cfg.skew_exponent);
    for (auto& x : inst.r) {
      x = rng.uniform_time(cfg.r_lo, cfg.r_hi, cfg.integer_times);
    }
    const double v_drawn =
        rng.uniform_time(cfg.v_lo, cfg.v_hi, cfg.integer_times);
    inst.v = cfg.stretch_intrudes ? std::max(0.0, v_drawn - carry)
                                  : v_drawn;

    // Step 3 (drawn before planning so the Perfect oracle can see it; the
    // request is independent of the plan for every other policy).
    const ItemId requested = sample_categorical(inst.P, rng);

    // Step 2: prefetch.
    engine.plan(inst, scratch, plan, requested);

    // Step 4: access time per Figure 2.
    const double T = realized_access_time(inst, plan.fetch, requested);

    // Carryover for the next window: after a hit in K the tail of F is
    // still on the wire for st(F) beyond the request instant.
    if (cfg.stretch_intrudes) {
      const bool hit_in_K =
          !plan.fetch.empty() && requested != plan.fetch.back() &&
          std::find(plan.fetch.begin(), plan.fetch.end() - 1, requested) !=
              plan.fetch.end() - 1;
      carry = hit_in_K ? stretch_time(inst, plan.fetch) : 0.0;
    }

    // Step 5: output v and T (binned by the drawn v, as the paper plots).
    const auto vbin = static_cast<std::int64_t>(std::llround(v_drawn));
    result.avg_T_by_v.add(vbin, T);
    result.metrics.access_time.add(T);
    ++result.metrics.requests;
    if (T == 0.0) ++result.metrics.hits;
    result.metrics.solver_nodes += plan.solver_nodes;
    result.metrics.prefetch_fetches += plan.fetch.size();
    for (ItemId f : plan.fetch) {
      result.metrics.network_time += inst.r[Instance::idx(f)];
      result.metrics.prefetch_network_time += inst.r[Instance::idx(f)];
      if (f != requested) ++result.metrics.wasted_prefetches;
    }
    if (std::find(plan.fetch.begin(), plan.fetch.end(), requested) ==
        plan.fetch.end()) {
      ++result.metrics.demand_fetches;
      result.metrics.network_time += inst.r[Instance::idx(requested)];
      result.metrics.demand_network_time += inst.r[Instance::idx(requested)];
    }
    if (result.scatter.size() < cfg.scatter_limit) {
      result.scatter.emplace_back(v_drawn, T);
    }
  }
}

void validate_config(const PrefetchOnlyConfig& cfg) {
  SKP_REQUIRE(cfg.n_items >= 1, "n_items");
  SKP_REQUIRE(cfg.r_lo > 0 && cfg.r_lo <= cfg.r_hi, "r range");
  SKP_REQUIRE(cfg.v_lo >= 0 && cfg.v_lo <= cfg.v_hi, "v range");
}

}  // namespace

PrefetchOnlyResult run_prefetch_only(const PrefetchOnlyConfig& cfg) {
  validate_config(cfg);
  PrefetchOnlyResult result(static_cast<std::int64_t>(cfg.v_lo),
                            static_cast<std::int64_t>(cfg.v_hi));
  Rng rng(cfg.seed);
  run_block(cfg, cfg.iterations, rng, result);
  return result;
}

PrefetchOnlyResult run_prefetch_only_parallel(const PrefetchOnlyConfig& cfg,
                                              ThreadPool& pool,
                                              std::size_t chunks) {
  validate_config(cfg);
  if (chunks == 0) chunks = pool.thread_count();
  chunks = std::max<std::size_t>(1, chunks);

  PrefetchOnlyResult total(static_cast<std::int64_t>(cfg.v_lo),
                           static_cast<std::int64_t>(cfg.v_hi));
  std::mutex merge_mu;
  Rng parent(cfg.seed);

  // Derive all chunk streams up-front so they depend only on (seed, chunk).
  std::vector<Rng> streams;
  streams.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    streams.push_back(parent.split(c + 1));
  }

  parallel_chunks(pool, cfg.iterations, chunks,
                  [&](std::size_t begin, std::size_t end, std::size_t c) {
                    PrefetchOnlyResult local(
                        static_cast<std::int64_t>(cfg.v_lo),
                        static_cast<std::int64_t>(cfg.v_hi));
                    Rng rng = streams[c];
                    run_block(cfg, end - begin, rng, local);
                    const std::lock_guard lk(merge_mu);
                    total.avg_T_by_v.merge(local.avg_T_by_v);
                    total.metrics.merge(local.metrics);
                    for (const auto& pt : local.scatter) {
                      if (total.scatter.size() < cfg.scatter_limit) {
                        total.scatter.push_back(pt);
                      }
                    }
                  });
  return total;
}

}  // namespace skp
