// The "prefetch only" Monte-Carlo simulation of Section 4.4.
//
// Paper protocol (verbatim steps): "1) generate n, P, r and v randomly,
// 2) prefetch, 3) generate a random request, 4) calculate access time,
// 5) output v and T." The cache is used only for prefetched items and is
// flushed after each request, so every iteration is independent:
//   * P via the skewy or flat method (workload/prob_gen.hpp),
//   * r_i ~ U{1..30}, v ~ U{1..100} (integers by default, paper-style),
//   * prefetch list chosen by the configured policy,
//   * T = realized access time of Figure 2.
// Figures 4 (scatter of T vs v) and 5 (average T vs v) are both produced
// from this loop.
#pragma once

#include <cstdint>
#include <vector>

#include "core/prefetch_engine.hpp"
#include "sim/metrics.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload/prob_gen.hpp"

namespace skp {

struct PrefetchOnlyConfig {
  std::size_t n_items = 10;
  ProbMethod method = ProbMethod::Skewy;
  double skew_exponent = 8.0;
  double r_lo = 1.0, r_hi = 30.0;
  double v_lo = 1.0, v_hi = 100.0;
  bool integer_times = true;
  PrefetchPolicy policy = PrefetchPolicy::SKP;
  DeltaRule delta_rule = DeltaRule::ExactComplement;
  std::size_t iterations = 50'000;
  std::uint64_t seed = 1;
  // Keep the first `scatter_limit` (v, T) samples (Fig. 4 plots 500).
  std::size_t scatter_limit = 0;
  // Extension (Section 4.4: "the stretch time may intrude into the next
  // viewing time"). When true, the residual transfer time left after a
  // hit-in-K request (the still-downloading tail of F) is deducted from
  // the *next* iteration's viewing time before planning — the carryover
  // the per-iteration analytic model ignores. false = paper protocol.
  bool stretch_intrudes = false;
  // No plan memoization: this protocol redraws (P, r, v) i.i.d. every
  // iteration, so no instance ever recurs and a memo could never hit.
};

struct PrefetchOnlyResult {
  // Average T conditioned on integer v — the Fig. 5 curves.
  BinnedMeans avg_T_by_v;
  SimMetrics metrics;
  // First `scatter_limit` raw samples — the Fig. 4 scatter.
  std::vector<std::pair<double, double>> scatter;

  PrefetchOnlyResult(std::int64_t v_lo, std::int64_t v_hi)
      : avg_T_by_v(v_lo, v_hi) {}
};

// Single-threaded run (fully deterministic in config.seed).
PrefetchOnlyResult run_prefetch_only(const PrefetchOnlyConfig& config);

// Parallel run: iterations are split into chunks with independent derived
// RNG streams; the result is deterministic in (seed, chunk count) and
// independent of thread scheduling.
PrefetchOnlyResult run_prefetch_only_parallel(
    const PrefetchOnlyConfig& config, ThreadPool& pool,
    std::size_t chunks = 0 /* 0 = pool thread count */);

}  // namespace skp
