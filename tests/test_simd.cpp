// Bit-exactness suite for the raw-speed round-3 machinery:
//
//   * util/simd.hpp kernels — every vector ISA the CPU supports must
//     reproduce the scalar reference BIT-identically (the scalar path is
//     the semantics; vectorization may only reorganize exact IEEE
//     elementwise work), including denormal inputs and zero-probability
//     rows;
//   * run_prefetch_cache_batch — each lockstep lane must equal
//     run_prefetch_cache on that lane's config alone (a one-lane run),
//     metrics AND plan-cache counters.
//
// Everything here compares doubles through std::bit_cast: equality means
// the same 64 bits, not "close".
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan_cache.hpp"
#include "sim/prefetch_cache.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace skp {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_doubles(std::span<const double> a,
                         std::span<const double> b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i]), bits(b[i]))
        << what << " diverges at index " << i << ": " << a[i] << " vs "
        << b[i];
  }
}

// ISAs to exercise: scalar is the reference; every wider ISA the CPU
// supports must match it.
std::vector<simd::Isa> testable_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::Scalar};
  if (simd::detected_isa() >= simd::Isa::Sse2) isas.push_back(simd::Isa::Sse2);
  if (simd::detected_isa() >= simd::Isa::Avx2) isas.push_back(simd::Isa::Avx2);
  return isas;
}

struct KernelInput {
  std::vector<double> P, r;
  std::vector<ItemId> ids;
  std::vector<char> present;
};

KernelInput random_input(Rng& rng, std::size_t n, std::size_t m,
                         bool denormals, bool zero_rows) {
  KernelInput in;
  in.P.resize(n);
  in.r.resize(n);
  in.present.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    in.P[i] = zero_rows && (rng.next_u64() & 1) ? 0.0
                                                : rng.next_double();
    if (denormals && (rng.next_u64() % 4) == 0) {
      // Scale deep into the subnormal range; exact products with these
      // are where sloppy vector paths (FTZ/DAZ) first diverge.
      in.P[i] *= 1e-310;
    }
    in.r[i] = 1.0 + 29.0 * rng.next_double();
    in.present[i] = static_cast<char>(rng.next_u64() & 1);
  }
  in.ids.reserve(m);
  for (std::size_t k = 0; k < m; ++k) {
    in.ids.push_back(static_cast<ItemId>(rng.next_u64() % n));
  }
  return in;
}

TEST(SimdKernels, AllIsasMatchScalarOnRandomInputs) {
  Rng rng(2024);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 1 + rng.next_u64() % 257;
    const std::size_t m = rng.next_u64() % (n + 13);
    const KernelInput in = random_input(rng, n, m, /*denormals=*/rep % 2,
                                        /*zero_rows=*/rep % 3 == 0);
    std::vector<double> ref_suf(m + 1);
    simd::suffix_sums_isa(simd::Isa::Scalar, in.P, in.ids, ref_suf.data());
    const double ref_mask =
        simd::masked_time_sum_isa(simd::Isa::Scalar, in.P, in.r, in.present);

    for (simd::Isa isa : testable_isas()) {
      std::vector<double> suf(m + 1);
      simd::suffix_sums_isa(isa, in.P, in.ids, suf.data());
      const double mask = simd::masked_time_sum_isa(isa, in.P, in.r,
                                                    in.present);
      expect_same_doubles(suf, ref_suf, simd::to_string(isa));
      EXPECT_EQ(bits(mask), bits(ref_mask)) << simd::to_string(isa);
    }
  }
}

TEST(SimdKernels, EmptyAndAllZeroEdgeCases) {
  const std::vector<double> P = {0.0, 0.0, 0.0};
  const std::vector<double> r = {1.0, 2.0, 3.0};
  const std::vector<ItemId> ids = {2, 0, 1};
  const std::vector<char> none(3, 0);
  for (simd::Isa isa : testable_isas()) {
    // Empty id list: nothing written, suffix gets its lone 0 sentinel.
    double sentinel = 42.0;
    simd::suffix_sums_isa(isa, P, {}, &sentinel);
    EXPECT_EQ(bits(sentinel), bits(0.0)) << simd::to_string(isa);
    // All-zero P: every tail sum and the masked total are exactly 0.0.
    std::vector<double> suf(ids.size() + 1, -1.0);
    simd::suffix_sums_isa(isa, P, ids, suf.data());
    for (double s : suf) EXPECT_EQ(bits(s), bits(0.0));
    EXPECT_EQ(bits(simd::masked_time_sum_isa(isa, P, r, none)), bits(0.0));
  }
}

TEST(SimdKernels, ActiveIsaMatchesScalarThroughPublicEntryPoints) {
  Rng rng(7);
  const KernelInput in = random_input(rng, 100, 40, /*denormals=*/true,
                                      /*zero_rows=*/true);
  EXPECT_EQ(bits(simd::masked_time_sum(in.P, in.r, in.present)),
            bits(simd::masked_time_sum_isa(simd::Isa::Scalar, in.P, in.r,
                                           in.present)));
}

// ---- run_prefetch_cache_batch == per-config run_prefetch_cache ----------

void expect_same_stats(const PlanCacheStats& a, const PlanCacheStats& b,
                       const char* tier) {
  EXPECT_EQ(a.hits, b.hits) << tier;
  EXPECT_EQ(a.misses, b.misses) << tier;
  EXPECT_EQ(a.inserts, b.inserts) << tier;
  EXPECT_EQ(a.evictions, b.evictions) << tier;
  EXPECT_EQ(a.door_rejects, b.door_rejects) << tier;
}

void expect_same_result(const PrefetchCacheResult& a,
                        const PrefetchCacheResult& b) {
  const SimMetrics& ma = a.metrics;
  const SimMetrics& mb = b.metrics;
  EXPECT_EQ(ma.requests, mb.requests);
  EXPECT_EQ(ma.hits, mb.hits);
  EXPECT_EQ(ma.demand_fetches, mb.demand_fetches);
  EXPECT_EQ(ma.prefetch_fetches, mb.prefetch_fetches);
  EXPECT_EQ(ma.wasted_prefetches, mb.wasted_prefetches);
  EXPECT_EQ(ma.solver_nodes, mb.solver_nodes);
  EXPECT_EQ(bits(ma.network_time), bits(mb.network_time));
  EXPECT_EQ(bits(ma.prefetch_network_time), bits(mb.prefetch_network_time));
  EXPECT_EQ(bits(ma.demand_network_time), bits(mb.demand_network_time));
  EXPECT_EQ(ma.access_time.count(), mb.access_time.count());
  EXPECT_EQ(bits(ma.access_time.mean()), bits(mb.access_time.mean()));
  EXPECT_EQ(bits(ma.access_time.m2()), bits(mb.access_time.m2()));
  EXPECT_EQ(a.over_viewing_time, b.over_viewing_time);
  expect_same_stats(a.plan_cache.plans, b.plan_cache.plans, "plans");
  expect_same_stats(a.plan_cache.selections, b.plan_cache.selections,
                    "selections");
}

PrefetchCacheConfig small_config() {
  PrefetchCacheConfig cfg;
  cfg.source.n_states = 40;
  cfg.requests = 3000;
  cfg.seed = 11;
  return cfg;
}

TEST(BatchSim, CacheSizeSweepLanesMatchSoloRuns) {
  // The fig7 shape: one policy, many cache sizes. All lanes of one delta
  // rule land in one engine-digest group and often share a candidate set;
  // the PaperTail lanes also solve with the canonical-row tail sums.
  for (DeltaRule rule : {DeltaRule::ExactComplement, DeltaRule::PaperTail}) {
    std::vector<PrefetchCacheConfig> configs;
    for (std::size_t size : {2, 5, 9, 14, 20, 33}) {
      PrefetchCacheConfig cfg = small_config();
      cfg.cache_size = size;
      cfg.delta_rule = rule;
      configs.push_back(cfg);
    }
    const std::vector<PrefetchCacheResult> batch =
        run_prefetch_cache_batch(configs);
    ASSERT_EQ(batch.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      SCOPED_TRACE(testing::Message()
                   << "delta_rule=" << static_cast<int>(rule)
                   << " cache_size=" << configs[i].cache_size);
      expect_same_result(batch[i], run_prefetch_cache(configs[i]));
    }
  }
}

TEST(BatchSim, MixedPolicyAndArbitrationLanesMatchSoloRuns) {
  // Heterogeneous lanes: different policies (several engine-digest
  // groups), LFU sub-arbitration (plan tier skipped), a PaperTail lane,
  // a plan-cache-off lane (solo fallback inside the batch), a warmup
  // offset, and a min-profit threshold.
  std::vector<PrefetchCacheConfig> configs(6, small_config());
  configs[0].policy = PrefetchPolicy::SKP;
  configs[1].policy = PrefetchPolicy::Perfect;
  configs[2].policy = PrefetchPolicy::KP;
  configs[2].sub = SubArbitration::LFU;
  configs[3].delta_rule = DeltaRule::PaperTail;
  configs[3].cache_size = 7;
  configs[4].use_plan_cache = false;
  configs[5].warmup = 500;
  configs[5].min_profit_threshold = 0.4;
  const std::vector<PrefetchCacheResult> batch =
      run_prefetch_cache_batch(configs);
  ASSERT_EQ(batch.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "lane " << i);
    expect_same_result(batch[i], run_prefetch_cache(configs[i]));
  }
}

TEST(BatchSim, DriftingLanesMatchSoloRuns) {
  std::vector<PrefetchCacheConfig> configs(3, small_config());
  for (PrefetchCacheConfig& cfg : configs) cfg.drift_period = 700;
  configs[1].cache_size = 4;
  configs[2].sub = SubArbitration::DS;
  const std::vector<PrefetchCacheResult> batch =
      run_prefetch_cache_batch(configs);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "lane " << i);
    expect_same_result(batch[i], run_prefetch_cache(configs[i]));
  }
}

TEST(BatchSim, PredictorAndLookaheadLanesMatchSoloRuns) {
  // Lanes that plan their own rows (learned predictors, lookahead blends)
  // interleaved with batched oracle lanes, under every sub-arbitration
  // and with the plan cache on and off: each lane is independent of its
  // neighbours.
  std::vector<PrefetchCacheConfig> configs(7, small_config());
  configs[0].predictor = PredictorKind::Markov1;
  configs[1].sub = SubArbitration::DS;
  configs[2].predictor = PredictorKind::Ppm;
  configs[2].sub = SubArbitration::LFU;
  configs[3].lookahead_horizon = 3;
  configs[4].lookahead_horizon = 3;
  configs[4].sub = SubArbitration::DS;
  configs[4].use_plan_cache = false;
  configs[5].predictor = PredictorKind::Markov1;
  configs[5].cache_size = 4;
  configs[5].warmup = 400;
  configs[6].policy = PrefetchPolicy::KP;
  const std::vector<PrefetchCacheResult> batch =
      run_prefetch_cache_batch(configs);
  ASSERT_EQ(batch.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "lane " << i);
    const PrefetchCacheResult solo = run_prefetch_cache(configs[i]);
    expect_same_result(batch[i], solo);
    EXPECT_GT(solo.metrics.prefetch_fetches, 0u);
  }
}

TEST(BatchSim, SingleLaneAndEmptyBatch) {
  EXPECT_TRUE(run_prefetch_cache_batch({}).empty());
  const PrefetchCacheConfig cfg = small_config();
  const std::vector<PrefetchCacheConfig> one = {cfg};
  expect_same_result(run_prefetch_cache_batch(one).front(),
                     run_prefetch_cache(cfg));
}

}  // namespace
}  // namespace skp
