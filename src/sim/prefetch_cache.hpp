// The "prefetch and cache" Monte-Carlo simulation of Section 5.3 (Fig. 7).
//
// Protocol (paper caption + DESIGN.md D5): a Markov source walks its
// states; in state s the prefetcher sees P = transition row of s and
// v = v_s, plans (F, D) against the current cache via the Figure-6
// algorithm, the prefetched items replace the victims, then the source
// steps to s' and requests item s'. The realized access time follows the
// Section-5 cases (0 on hit, st(F) for z, st(F) + r otherwise). A missed
// request is demand-fetched and *must* claim a victim (minimal-Pr with the
// configured sub-arbitration). Frequencies feed LFU/DS sub-arbitration.
//
// Extensions beyond the paper (both off by default):
//   * use_predictor — replace the oracle transition row with a learned
//     predictor (paper Section 6, "access modelling ... might serve").
//   * min_profit_threshold — suppress low-value prefetches to trade access
//     improvement for network usage (paper Section 6, network-usage
//     policy).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/prefetch_engine.hpp"
#include "predict/predictor.hpp"
#include "sim/metrics.hpp"
#include "workload/markov_source.hpp"

namespace skp {

enum class PredictorKind { Oracle, Markov1, Ppm, DependencyWindow, Lz78 };

const char* to_string(PredictorKind kind);

// The learned predictors, one construction shared by every driver:
// markov1 (first-order counts with a Laplace prior of `markov_prior`),
// ppm of order 2, depgraph over a window of 2, lz78. The drivers differ
// only in markov1's prior: prefetch_cache and trace_replay use 0.05,
// scenario / netsim_des / multi_client the default 0.1 (their golden
// rows stay comparable with each other). Throws on Oracle (no learned
// state).
std::unique_ptr<Predictor> make_runtime_predictor(PredictorKind kind,
                                                  std::size_t n_items,
                                                  double markov_prior = 0.1);

// Stream-derivation salts of run_prefetch_cache's seed layout: the
// default entry point builds the source from Rng(seed), derives the walk
// with kPrefetchCacheWalkSalt, and the drift stream (phase-shifting
// workloads) with kPrefetchCacheDriftSalt. Every entry point that must
// reproduce that layout bit for bit (sim/runtime.cpp's Zipf and drift
// paths) shares these constants instead of re-hardcoding them.
inline constexpr std::uint64_t kPrefetchCacheWalkSalt = 0x57a1f;
inline constexpr std::uint64_t kPrefetchCacheDriftSalt = 0xd21f7;

struct PrefetchCacheConfig {
  MarkovSourceConfig source;  // defaults match the Fig. 7 caption
  std::size_t cache_size = 10;
  PrefetchPolicy policy = PrefetchPolicy::SKP;
  SubArbitration sub = SubArbitration::None;
  DeltaRule delta_rule = DeltaRule::ExactComplement;
  bool strict_ties = false;
  std::size_t requests = 50'000;
  std::size_t warmup = 0;  // initial requests excluded from metrics
  std::uint64_t seed = 1;
  PredictorKind predictor = PredictorKind::Oracle;
  // Learned predictors emit dense distributions (smoothing gives every
  // item a sliver of mass); entries below this floor are dropped before
  // planning, mirroring a realistic candidate shortlist and keeping the
  // B&B over tens, not hundreds, of items. Ignored in oracle mode.
  double predictor_min_prob = 0.01;
  double min_profit_threshold = 0.0;
  // Extension (paper Section 6 "looking ahead deeper"): plan against
  // probabilities blended over this many future steps (oracle mode only;
  // 1 = the paper's one-access lookahead). See core/lookahead.hpp.
  std::size_t lookahead_horizon = 1;
  double lookahead_decay = 0.5;
  // Cross-request plan memoization (core/plan_cache.hpp): reuse completed
  // plans whenever the same (state, cache contents) pair recurs, and
  // precompute the per-state canonical solve order in oracle mode. The
  // fixed-seed equivalence suite pins on == off bit-for-bit on every
  // counter; off exists for A/B benchmarking, not correctness.
  bool use_plan_cache = true;
  std::size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
  // Phase-shifting workload drift (extension): every `drift_period`
  // requests the source redraws its transition structure from a
  // dedicated seed-derived stream (workload/markov_source.hpp
  // redraw_transitions — the v/r catalogs and the current state
  // persist). Changepoints invalidate every memoization tier whose keys
  // assumed the old rows, so results stay bit-identical with the plan
  // cache on or off. 0 = static chain (the paper's protocol).
  std::size_t drift_period = 0;
};

struct PrefetchCacheResult {
  SimMetrics metrics;
  // Requests whose access time exceeded the state's viewing time (stretch
  // intrusion diagnostics, cf. Section 4.4).
  std::uint64_t over_viewing_time = 0;
  // Plan-memoization counters, both tiers (all zero when use_plan_cache
  // is off).
  PlanMemoStats plan_cache;
};

// Runs the full experiment; deterministic in config.seed. The Markov chain
// structure is derived from the seed as well, so two runs with equal seeds
// share both the chain and the trajectory (the Fig. 7 policy comparison
// holds every policy to the same workload).
PrefetchCacheResult run_prefetch_cache(const PrefetchCacheConfig& config);

// As above but with a caller-supplied source (already constructed), useful
// when several policies must share one chain instance.
PrefetchCacheResult run_prefetch_cache(const PrefetchCacheConfig& config,
                                       MarkovSource& source, Rng& walk_rng);

// Lockstep batch execution: runs k experiments that share one workload
// (identical source config, seed, request count, and drift schedule) but
// may differ in cache size, policy, arbitration, thresholds, predictor,
// lookahead or plan-cache settings. The source is built and stepped ONCE
// per request for the whole batch, and memoized oracle one-step lanes
// with identical engine configs are planned through
// PrefetchEngine::plan_with_cache_batch over one shared canonical-order
// table. There is one runner: a solo run above is a batch of one lane, so
// every lane's result (metrics AND plan-cache counters) is bit-identical
// to run_prefetch_cache on that lane's config alone (tests/test_simd.cpp
// pins batch == solo). Results are returned in input order.
std::vector<PrefetchCacheResult> run_prefetch_cache_batch(
    std::span<const PrefetchCacheConfig> configs);

// ---- Heterogeneous item sizes (extension; paper Section 6) ---------------

struct SizedExperimentConfig {
  MarkovSourceConfig source;     // workload as in Fig. 7
  double capacity = 100.0;       // cache capacity in size units
  // Item sizes: proportional to retrieval time when `size_per_r` > 0
  // (size_i = size_per_r * r_i, the natural "bandwidth" coupling),
  // otherwise drawn U[size_lo, size_hi] independently of r.
  double size_per_r = 1.0;
  double size_lo = 1.0, size_hi = 30.0;
  PrefetchPolicy policy = PrefetchPolicy::SKP;
  SubArbitration sub = SubArbitration::None;
  DeltaRule delta_rule = DeltaRule::ExactComplement;
  bool strict_ties = false;
  std::size_t requests = 20'000;
  std::size_t warmup = 0;
  std::uint64_t seed = 1;
  // Plan memoization, as in PrefetchCacheConfig (keyed by the SizedCache
  // fingerprint instead of the slot cache's).
  bool use_plan_cache = true;
  std::size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
};

// Runs the Fig.-7 protocol against a byte-addressed cache with density
// arbitration. An uncacheable request (size > capacity) is served without
// caching. Used by bench/ablation_sizes to quantify the cost of the
// paper's equal-size assumption.
PrefetchCacheResult run_prefetch_cache_sized(
    const SizedExperimentConfig& config);

}  // namespace skp
