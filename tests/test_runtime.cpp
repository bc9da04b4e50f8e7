// Tests for the unified simulation runtime (sim/runtime.hpp): registry
// dispatch, SimSpec equivalence with the legacy driver entry points, the
// netsim DES driver, and the simctl sharding/merge substrate.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "sim/prefetch_cache.hpp"
#include "sim/prefetch_only.hpp"
#include "sim/runtime.hpp"
#include "sim/skpd_protocol.hpp"
#include "sim/trace_replay.hpp"

namespace skp {
namespace {

// ---- Registry -----------------------------------------------------------

TEST(SimRegistry, AllDriversRegisteredWithStableNames) {
  const auto registry = driver_registry();
  ASSERT_EQ(registry.size(), 7u);
  const char* expected[] = {"prefetch_only", "prefetch_cache",
                            "trace_replay",  "netsim_des",
                            "scenario",      "multi_client",
                            "skpd_loopback"};
  for (std::size_t i = 0; i < registry.size(); ++i) {
    EXPECT_STREQ(registry[i].name, expected[i]);
    EXPECT_EQ(find_driver(registry[i].kind).name, registry[i].name);
    EXPECT_EQ(find_driver(registry[i].name), &registry[i]);
    EXPECT_EQ(parse_driver_kind(registry[i].name), registry[i].kind);
  }
  EXPECT_EQ(find_driver("no_such_driver"), nullptr);
}

TEST(SimRegistry, EnumTokensRoundTrip) {
  for (const auto kind :
       {SimWorkloadKind::Markov, SimWorkloadKind::Iid, SimWorkloadKind::Zipf,
        SimWorkloadKind::MarkovDrift, SimWorkloadKind::TraceText}) {
    EXPECT_EQ(parse_workload_kind(to_string(kind)), kind);
  }
  for (const auto kind : {ReplacementKind::LRU, ReplacementKind::FIFO,
                          ReplacementKind::LFU, ReplacementKind::Random}) {
    EXPECT_EQ(parse_replacement_kind(to_string(kind)), kind);
  }
  for (const auto policy : {PrefetchPolicy::None, PrefetchPolicy::KP,
                            PrefetchPolicy::SKP, PrefetchPolicy::Perfect}) {
    EXPECT_EQ(parse_policy(policy_token(policy)), policy);
  }
  for (const auto sub :
       {SubArbitration::None, SubArbitration::LFU, SubArbitration::DS}) {
    EXPECT_EQ(parse_sub_arbitration(sub_token(sub)), sub);
  }
  for (const auto rule : {DeltaRule::ExactComplement, DeltaRule::PaperTail}) {
    EXPECT_EQ(parse_delta_rule(delta_token(rule)), rule);
  }
  EXPECT_EQ(parse_workload_kind("bogus"), std::nullopt);
  EXPECT_EQ(parse_policy("bogus"), std::nullopt);
}

// ---- Spec equivalence with the legacy entry points ----------------------

TEST(SimSpecEquivalence, PrefetchCacheMatchesLegacyRun) {
  SimSpec spec;  // prefetch_cache driver, paper-default Markov source
  spec.cache_size = 20;
  spec.sub = SubArbitration::DS;
  spec.requests = 2'000;
  spec.seed = 5;
  const SimResult via_registry = run_sim(spec);

  PrefetchCacheConfig cfg;
  cfg.cache_size = 20;
  cfg.sub = SubArbitration::DS;
  cfg.requests = 2'000;
  cfg.seed = 5;
  const PrefetchCacheResult direct = run_prefetch_cache(cfg);

  EXPECT_EQ(via_registry.metrics.hits, direct.metrics.hits);
  EXPECT_EQ(via_registry.metrics.demand_fetches,
            direct.metrics.demand_fetches);
  EXPECT_EQ(via_registry.metrics.prefetch_fetches,
            direct.metrics.prefetch_fetches);
  EXPECT_EQ(via_registry.metrics.network_time, direct.metrics.network_time);
  EXPECT_EQ(via_registry.metrics.solver_nodes, direct.metrics.solver_nodes);
  EXPECT_EQ(via_registry.metrics.mean_access_time(),
            direct.metrics.mean_access_time());
  EXPECT_EQ(via_registry.over_viewing_time, direct.over_viewing_time);
}

TEST(SimSpecEquivalence, SizedPrefetchCacheMatchesLegacyRun) {
  SimSpec spec;
  spec.sized_capacity = 155.0;
  spec.size_per_r = 1.0;
  spec.sub = SubArbitration::DS;
  spec.requests = 1'500;
  spec.seed = 3;
  const SimResult via_registry = run_sim(spec);

  SizedExperimentConfig cfg;
  cfg.capacity = 155.0;
  cfg.size_per_r = 1.0;
  cfg.sub = SubArbitration::DS;
  cfg.requests = 1'500;
  cfg.seed = 3;
  const PrefetchCacheResult direct = run_prefetch_cache_sized(cfg);

  EXPECT_EQ(via_registry.metrics.hits, direct.metrics.hits);
  EXPECT_EQ(via_registry.metrics.network_time, direct.metrics.network_time);
  EXPECT_EQ(via_registry.metrics.solver_nodes, direct.metrics.solver_nodes);
}

TEST(SimSpecEquivalence, PrefetchOnlyMatchesLegacyRun) {
  SimSpec spec;
  spec.driver = SimDriverKind::PrefetchOnly;
  spec.workload.kind = SimWorkloadKind::Iid;
  spec.workload.n_items = 10;
  spec.requests = 3'000;
  spec.seed = 9;
  const SimResult via_registry = run_sim(spec);

  PrefetchOnlyConfig cfg;
  cfg.n_items = 10;
  cfg.iterations = 3'000;
  cfg.seed = 9;
  const PrefetchOnlyResult direct = run_prefetch_only(cfg);

  EXPECT_EQ(via_registry.metrics.hits, direct.metrics.hits);
  EXPECT_EQ(via_registry.metrics.network_time, direct.metrics.network_time);
  EXPECT_EQ(via_registry.metrics.mean_access_time(),
            direct.metrics.mean_access_time());
  ASSERT_TRUE(via_registry.avg_T_by_v.has_value());
  const auto curve = via_registry.avg_T_by_v->series();
  const auto direct_curve = direct.avg_T_by_v.series();
  ASSERT_EQ(curve.size(), direct_curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_EQ(curve[i], direct_curve[i]);
  }
}

// ---- Driver-specific contracts ------------------------------------------

TEST(SimRuntime, TraceReplayIsDeterministicAndRejectsOracle) {
  SimSpec spec;
  spec.driver = SimDriverKind::TraceReplay;
  spec.predictor = PredictorKind::Markov1;
  spec.requests = 1'200;
  spec.seed = 4;
  const SimResult a = run_sim(spec);
  const SimResult b = run_sim(spec);
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
  EXPECT_EQ(a.metrics.network_time, b.metrics.network_time);
  EXPECT_GT(a.metrics.hits, 0u);

  spec.predictor = PredictorKind::Oracle;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
}

TEST(SimRuntime, NetsimDesOracleDeterministicAndMemoSafe) {
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.cache_size = 20;
  spec.requests = 1'500;
  spec.seed = 8;
  const SimResult a = run_sim(spec);
  const SimResult b = run_sim(spec);
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
  EXPECT_EQ(a.metrics.network_time, b.metrics.network_time);
  EXPECT_EQ(a.metrics.mean_access_time(), b.metrics.mean_access_time());
  EXPECT_GT(a.plans, 0u);
  EXPECT_GT(a.link_utilization, 0.0);
  EXPECT_LE(a.link_utilization, 1.0);

  // Plan memoization must not change DES outcomes (the context key only
  // ever stands in for identical planning inputs).
  spec.use_plan_cache = false;
  const SimResult off = run_sim(spec);
  EXPECT_EQ(a.metrics.hits, off.metrics.hits);
  EXPECT_EQ(a.metrics.network_time, off.metrics.network_time);
  EXPECT_EQ(a.metrics.solver_nodes, off.metrics.solver_nodes);
  EXPECT_EQ(a.metrics.mean_access_time(), off.metrics.mean_access_time());
  EXPECT_GT(a.plan_cache.plans.lookups(), 0u);
  EXPECT_EQ(off.plan_cache.plans.lookups(), 0u);
}

TEST(SimRuntime, NetsimDesDriftingOracleOnOffBitIdentical) {
  // The drift changepoint invalidates the session's context-keyed plans;
  // a stale replay would break the on/off equality below.
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.workload.kind = SimWorkloadKind::MarkovDrift;
  spec.workload.drift_period = 300;
  spec.cache_size = 15;
  spec.requests = 1'500;
  spec.seed = 6;
  const SimResult on = run_sim(spec);
  spec.use_plan_cache = false;
  const SimResult off = run_sim(spec);
  EXPECT_EQ(on.metrics.hits, off.metrics.hits);
  EXPECT_EQ(on.metrics.network_time, off.metrics.network_time);
  EXPECT_EQ(on.metrics.solver_nodes, off.metrics.solver_nodes);
  EXPECT_EQ(on.metrics.mean_access_time(), off.metrics.mean_access_time());
}

TEST(SimRuntime, MaterializedWorkloadsAreDeterministic) {
  for (const auto kind :
       {SimWorkloadKind::Markov, SimWorkloadKind::Iid, SimWorkloadKind::Zipf,
        SimWorkloadKind::MarkovDrift, SimWorkloadKind::TraceText}) {
    SimWorkload w;
    w.kind = kind;
    w.n_items = 24;
    w.out_degree_lo = 2;
    w.out_degree_hi = 6;
    w.v_lo = 5.0;
    w.v_hi = 40.0;
    w.drift_period = 100;
    Rng b1(17), w1(18), b2(17), w2(18);
    const MaterializedWorkload m1 = materialize_workload(w, 400, b1, w1);
    const MaterializedWorkload m2 = materialize_workload(w, 400, b2, w2);
    ASSERT_EQ(m1.cycles.size(), 400u);
    ASSERT_EQ(m1.n_items, 24u);
    ASSERT_EQ(m1.retrieval_times.size(), 24u);
    ASSERT_EQ(m2.cycles.size(), m1.cycles.size());
    for (std::size_t i = 0; i < m1.cycles.size(); ++i) {
      EXPECT_EQ(m1.cycles[i].item, m2.cycles[i].item);
      EXPECT_EQ(m1.cycles[i].viewing_time, m2.cycles[i].viewing_time);
      EXPECT_GE(m1.cycles[i].item, 0);
      EXPECT_LT(static_cast<std::size_t>(m1.cycles[i].item), 24u);
    }
    for (std::size_t i = 0; i < m1.retrieval_times.size(); ++i) {
      EXPECT_EQ(m1.retrieval_times[i], m2.retrieval_times[i]);
      EXPECT_GT(m1.retrieval_times[i], 0.0);
    }
  }
}

// ---- multi_client driver ------------------------------------------------

SimSpec quick_multi_client_spec() {
  SimSpec spec;
  spec.driver = SimDriverKind::MultiClientDes;
  spec.workload.n_items = 25;
  spec.workload.out_degree_lo = 4;
  spec.workload.out_degree_hi = 7;
  spec.multi_client.clients = 3;
  spec.cache_size = 6;
  spec.requests = 400;  // per client
  spec.seed = 13;
  return spec;
}

TEST(SimRuntime, MultiClientDeterministicInSeedWithPerClientRows) {
  const SimSpec spec = quick_multi_client_spec();
  const SimResult a = run_sim(spec);
  const SimResult b = run_sim(spec);
  EXPECT_EQ(a.metrics.hits, b.metrics.hits);
  EXPECT_EQ(a.metrics.network_time, b.metrics.network_time);
  EXPECT_EQ(a.metrics.mean_access_time(), b.metrics.mean_access_time());
  EXPECT_EQ(a.link_utilization, b.link_utilization);
  EXPECT_GT(a.plans, 0u);
  EXPECT_GT(a.link_utilization, 0.0);
  EXPECT_LE(a.link_utilization, 1.0 + 1e-9);

  // Per-client rows merge to the aggregate and serve the per-client
  // quota each.
  ASSERT_EQ(a.per_client.size(), 3u);
  std::uint64_t hits = 0, requests = 0;
  for (const SimMetrics& m : a.per_client) {
    EXPECT_EQ(m.requests, 400u);
    hits += m.hits;
    requests += m.requests;
  }
  EXPECT_EQ(hits, a.metrics.hits);
  EXPECT_EQ(requests, a.metrics.requests);

  // Homogeneous clients must still walk distinct trajectories (distinct
  // per-client streams): identical per-client counters across all three
  // would mean the chains collapsed onto one stream.
  EXPECT_FALSE(a.per_client[0].network_time ==
                   a.per_client[1].network_time &&
               a.per_client[1].network_time ==
                   a.per_client[2].network_time);

  SimSpec reseeded = spec;
  reseeded.seed = 99;
  EXPECT_NE(run_sim(reseeded).metrics.network_time,
            a.metrics.network_time);
}

TEST(SimRuntime, MultiClientPlanCacheOnOffBitIdentical) {
  SimSpec spec = quick_multi_client_spec();
  spec.requests = 800;
  const SimResult on = run_sim(spec);
  spec.use_plan_cache = false;
  const SimResult off = run_sim(spec);
  EXPECT_EQ(on.metrics.hits, off.metrics.hits);
  EXPECT_EQ(on.metrics.demand_fetches, off.metrics.demand_fetches);
  EXPECT_EQ(on.metrics.prefetch_fetches, off.metrics.prefetch_fetches);
  EXPECT_EQ(on.metrics.solver_nodes, off.metrics.solver_nodes);
  EXPECT_EQ(on.metrics.mean_access_time(), off.metrics.mean_access_time());
  EXPECT_EQ(on.metrics.network_time, off.metrics.network_time);
  EXPECT_EQ(on.link_utilization, off.link_utilization);
  // Oracle chains: recurring states replay stored selections (and some
  // full plans); disabled runs must not even look.
  EXPECT_GT(on.plan_cache.plans.hits, 0u);
  EXPECT_GT(on.plan_cache.selections.hits, 0u);
  EXPECT_EQ(off.plan_cache.plans.lookups(), 0u);
  EXPECT_EQ(off.plan_cache.selections.lookups(), 0u);
}

TEST(SimRuntime, MultiClientLearnedModeRunsEveryScenarioWorkload) {
  for (const auto kind :
       {SimWorkloadKind::Markov, SimWorkloadKind::Iid,
        SimWorkloadKind::TraceText}) {
    SimSpec spec = quick_multi_client_spec();
    spec.workload.kind = kind;
    spec.predictor = PredictorKind::Markov1;
    spec.predictor_min_prob = 0.02;
    spec.predictor_warmup = 32;
    const SimResult a = run_sim(spec);
    const SimResult b = run_sim(spec);
    EXPECT_EQ(a.metrics.network_time, b.metrics.network_time)
        << to_string(kind);
    EXPECT_EQ(a.metrics.requests, 1200u);
    EXPECT_GT(a.metrics.prefetch_fetches, 0u) << to_string(kind);
    // Learned clients bypass memoization (their rows churn every
    // observation — no context key holds).
    EXPECT_EQ(a.plan_cache.plans.lookups(), 0u);
  }
}

TEST(SimRuntime, MultiClientPerClientOverridesAreLocal) {
  // Overriding client 2's seed must not move clients 0/1 (private
  // per-client streams), and a per-client predictor override mixes
  // learned and oracle clients in one run.
  SimSpec spec = quick_multi_client_spec();
  const SimResult base = run_sim(spec);

  spec.multi_client.overrides.resize(3);
  spec.multi_client.overrides[2].seed = 777;
  const SimResult reseeded = run_sim(spec);
  ASSERT_EQ(reseeded.per_client.size(), 3u);
  EXPECT_EQ(base.per_client[0].solver_nodes,
            reseeded.per_client[0].solver_nodes);
  EXPECT_EQ(base.per_client[1].solver_nodes,
            reseeded.per_client[1].solver_nodes);
  EXPECT_NE(base.per_client[2].network_time,
            reseeded.per_client[2].network_time);

  spec.multi_client.overrides[2].predictor = PredictorKind::Markov1;
  spec.predictor_min_prob = 0.02;
  spec.predictor_warmup = 32;
  const SimResult mixed = run_sim(spec);
  EXPECT_EQ(mixed.metrics.requests, 1200u);
  // The oracle clients still memoize; the learned one does not add
  // lookups of its own.
  EXPECT_GT(mixed.plan_cache.selections.lookups(), 0u);

  // Wrong-sized override vectors are rejected.
  spec.multi_client.overrides.resize(2);
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
}

TEST(SimRuntime, MultiClientSectionRejectedBySingleClientDrivers) {
  SimSpec spec;  // prefetch_cache
  spec.multi_client.clients = 2;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);

  SimSpec des;
  des.driver = SimDriverKind::NetsimDes;
  des.multi_client.link_speedup = 2.0;
  EXPECT_THROW(run_sim(des), std::invalid_argument);

  // Oracle multi_client needs a chain-shaped workload.
  SimSpec iid = quick_multi_client_spec();
  iid.workload.kind = SimWorkloadKind::Iid;
  EXPECT_THROW(run_sim(iid), std::invalid_argument);
}

// ---- Hostile worlds through the registry --------------------------------

TEST(SimRuntime, MultiClientRequestOverridesSplitWithoutRemainderLoss) {
  // A total budget that does not divide by the client count lands as
  // base+1 quotas on the first clients via per-client overrides; the
  // aggregate must serve every requested cycle.
  SimSpec spec = quick_multi_client_spec();
  spec.requests = 400;
  spec.multi_client.overrides.resize(3);
  spec.multi_client.overrides[0].requests = 401;
  const SimResult res = run_sim(spec);
  ASSERT_EQ(res.per_client.size(), 3u);
  EXPECT_EQ(res.per_client[0].requests, 401u);
  EXPECT_EQ(res.per_client[1].requests, 400u);
  EXPECT_EQ(res.per_client[2].requests, 400u);
  EXPECT_EQ(res.metrics.requests, 1201u);

  // A zero quota is rejected, not served as an idle ghost client.
  spec.multi_client.overrides[0].requests = 0;
  EXPECT_THROW(run_sim(spec), std::invalid_argument);
}

TEST(SimRuntime, MultiClientHostileSpecsRunDeterministically) {
  // Flash crowd, churn, and a time-varying link each produce a
  // reproducible trajectory through the registry, and churn surfaces in
  // the result surface.
  SimSpec flash = quick_multi_client_spec();
  flash.multi_client.phase_align = 0.8;
  const SimResult f1 = run_sim(flash);
  const SimResult f2 = run_sim(flash);
  EXPECT_EQ(f1.metrics.network_time, f2.metrics.network_time);
  EXPECT_EQ(f1.metrics.hits, f2.metrics.hits);
  EXPECT_EQ(f1.churn_events, 0u);

  SimSpec churn = quick_multi_client_spec();
  churn.multi_client.churn_period = 300.0;
  churn.multi_client.churn_downtime = 50.0;
  const SimResult c1 = run_sim(churn);
  const SimResult c2 = run_sim(churn);
  EXPECT_GT(c1.churn_events, 0u);
  EXPECT_EQ(c1.churn_events, c2.churn_events);
  EXPECT_EQ(c1.metrics.network_time, c2.metrics.network_time);
  EXPECT_EQ(c1.metrics.requests, 1200u);

  SimSpec stormy = quick_multi_client_spec();
  stormy.link_schedule = {{200.0, 1.0, 0.0}, {60.0, 0.25, 2.0}};
  const SimResult s1 = run_sim(stormy);
  // Start-phase pricing re-times transfers but never re-plans: the
  // decision path matches the static-link run bit for bit.
  const SimResult calm = run_sim(quick_multi_client_spec());
  EXPECT_EQ(s1.metrics.demand_fetches, calm.metrics.demand_fetches);
  EXPECT_EQ(s1.metrics.prefetch_fetches, calm.metrics.prefetch_fetches);
  EXPECT_EQ(s1.metrics.solver_nodes, calm.metrics.solver_nodes);
  EXPECT_EQ(s1.metrics.network_time, calm.metrics.network_time);
  EXPECT_GT(s1.metrics.mean_access_time(), calm.metrics.mean_access_time());
}

TEST(SimRuntime, NetsimDesHonorsLinkScheduleInStaleEstimateRegime) {
  SimSpec calm_spec;
  calm_spec.driver = SimDriverKind::NetsimDes;
  calm_spec.workload.n_items = 25;
  calm_spec.workload.out_degree_lo = 4;
  calm_spec.workload.out_degree_hi = 7;
  calm_spec.cache_size = 6;
  calm_spec.requests = 500;
  calm_spec.seed = 13;
  SimSpec stormy_spec = calm_spec;
  stormy_spec.link_schedule = {{200.0, 1.0, 0.0}, {60.0, 0.25, 2.0}};
  const SimResult calm = run_sim(calm_spec);
  const SimResult stormy = run_sim(stormy_spec);
  const SimResult again = run_sim(stormy_spec);
  // Planning keeps consuming the grounded static catalog (the stale
  // estimate), so fetch decisions and the planning-side network metrics
  // are unchanged; only realized waiting moves.
  EXPECT_EQ(calm.metrics.demand_fetches, stormy.metrics.demand_fetches);
  EXPECT_EQ(calm.metrics.prefetch_fetches, stormy.metrics.prefetch_fetches);
  EXPECT_EQ(calm.metrics.solver_nodes, stormy.metrics.solver_nodes);
  EXPECT_EQ(calm.metrics.network_time, stormy.metrics.network_time);
  EXPECT_GT(stormy.metrics.mean_access_time(),
            calm.metrics.mean_access_time());
  EXPECT_EQ(stormy.metrics.mean_access_time(),
            again.metrics.mean_access_time());
}

TEST(SimRuntime, AdversarialWorkloadRunsOnEveryHonoringDriver) {
  // prefetch_cache, netsim_des and multi_client all accept the
  // adversarial chain (it is a plain MarkovSource under the hood).
  SimSpec pc;
  pc.driver = SimDriverKind::PrefetchCache;
  pc.workload.kind = SimWorkloadKind::Adversarial;
  pc.workload.n_items = 24;
  pc.requests = 600;
  const SimResult a = run_sim(pc);
  EXPECT_EQ(a.metrics.requests, 600u);
  EXPECT_GT(a.metrics.prefetch_fetches, 0u);

  SimSpec des = pc;
  des.driver = SimDriverKind::NetsimDes;
  const SimResult b = run_sim(des);
  EXPECT_EQ(b.metrics.requests, 600u);

  // Oracle multi_client builds its chains from a MarkovSourceConfig, so
  // the adversarial stream rides the scripted learned path there.
  SimSpec mc = quick_multi_client_spec();
  mc.workload.kind = SimWorkloadKind::Adversarial;
  mc.workload.n_items = 24;
  EXPECT_THROW(run_sim(mc), std::invalid_argument);
  mc.predictor = PredictorKind::Markov1;
  mc.predictor_min_prob = 0.02;
  mc.predictor_warmup = 32;
  const SimResult c = run_sim(mc);
  EXPECT_EQ(c.metrics.requests, 1200u);
  EXPECT_EQ(run_sim(mc).metrics.network_time, c.metrics.network_time);
}

TEST(SimRuntime, HostileFieldsRejectedWhereNotHonored) {
  // link_schedule outside the DES drivers (reject, don't drop).
  SimSpec pc;
  pc.link_schedule = {{100.0, 1.0, 0.0}};
  EXPECT_THROW(run_sim(pc), std::invalid_argument);

  SimSpec scen;
  scen.driver = SimDriverKind::Scenario;
  scen.predictor = PredictorKind::Markov1;
  scen.link_schedule = {{100.0, 1.0, 0.0}};
  EXPECT_THROW(run_sim(scen), std::invalid_argument);

  // Hostile multi_client knobs on a single-client driver.
  SimSpec flash;
  flash.multi_client.phase_align = 0.5;
  EXPECT_THROW(run_sim(flash), std::invalid_argument);
  SimSpec churn;
  churn.driver = SimDriverKind::NetsimDes;
  churn.multi_client.churn_period = 100.0;
  EXPECT_THROW(run_sim(churn), std::invalid_argument);

  // Out-of-range knobs on the honoring driver.
  SimSpec bad = quick_multi_client_spec();
  bad.multi_client.phase_align = 1.5;
  EXPECT_THROW(run_sim(bad), std::invalid_argument);
  bad = quick_multi_client_spec();
  bad.link_schedule = {{0.0, 1.0, 0.0}};
  EXPECT_THROW(run_sim(bad), std::invalid_argument);
}

TEST(SimRuntime, InvalidSpecsAreRejected) {
  SimSpec spec;
  spec.driver = SimDriverKind::PrefetchOnly;
  spec.workload.kind = SimWorkloadKind::Markov;  // not iid
  EXPECT_THROW(run_sim(spec), std::invalid_argument);

  SimSpec trace_iid;
  trace_iid.driver = SimDriverKind::PrefetchCache;
  trace_iid.workload.kind = SimWorkloadKind::TraceText;
  EXPECT_THROW(run_sim(trace_iid), std::invalid_argument);

  SimSpec scenario_oracle;
  scenario_oracle.driver = SimDriverKind::Scenario;
  scenario_oracle.predictor = PredictorKind::Oracle;
  scenario_oracle.workload.n_items = 24;
  EXPECT_THROW(run_sim(scenario_oracle), std::invalid_argument);
}

// Every field of `r` but its memo counters, in the key=value result form
// (multi_client's per-client rows one by one).
std::vector<std::string> encode_without_memo(SimResult r) {
  r.plan_cache = {};
  std::vector<std::string> out;
  for (const SimMetrics& m : r.per_client) {
    SimResult row;
    row.metrics = m;
    out.push_back(encode_sim_result(row));
  }
  r.per_client.clear();
  out.push_back(encode_sim_result(r));
  return out;
}

TEST(SimRuntime, DesOracleSubArbitrationMemoizesSelectionsOnly) {
  // Under LFU/DS a completed plan reads victim scores that move with
  // every request, so neither DES driver builds a plans tier there; the
  // selection tier still replays, and every non-memo field equals the
  // memo-off run.
  SimSpec netsim;
  netsim.driver = SimDriverKind::NetsimDes;
  netsim.cache_size = 20;
  netsim.requests = 1'500;
  netsim.seed = 8;
  for (const SimSpec& base : {netsim, quick_multi_client_spec()}) {
    for (const SubArbitration sub :
         {SubArbitration::LFU, SubArbitration::DS}) {
      SimSpec spec = base;
      spec.sub = sub;
      const SimResult on = run_sim(spec);
      spec.use_plan_cache = false;
      const SimResult off = run_sim(spec);
      const std::string label =
          std::string(to_string(spec.driver)) + "/" + sub_token(sub);
      EXPECT_EQ(on.plan_cache.plans.lookups(), 0u) << label;
      EXPECT_GT(on.plan_cache.selections.hits, 0u) << label;
      EXPECT_EQ(off.plan_cache.selections.lookups(), 0u) << label;
      EXPECT_EQ(encode_without_memo(on), encode_without_memo(off))
          << label;
    }
  }
}

TEST(SimBatch, MixedLanesMatchRunSimSpecBySpec) {
  // Oracle and learned lanes under every sub-arbitration, a drifting
  // workload, and a sized spec the lockstep runner does not take: each
  // batched result must equal its solo run_sim, field for field.
  SimSpec base;
  base.driver = SimDriverKind::PrefetchCache;
  base.cache_size = 10;
  base.requests = 1'200;
  base.seed = 5;
  SimSpec drift = base;
  drift.workload.kind = SimWorkloadKind::MarkovDrift;
  drift.workload.drift_period = 400;
  std::vector<SimSpec> specs;
  for (const SimSpec& workload : {base, drift}) {
    for (const PredictorKind predictor :
         {PredictorKind::Oracle, PredictorKind::Markov1,
          PredictorKind::Ppm}) {
      for (const SubArbitration sub :
           {SubArbitration::None, SubArbitration::LFU, SubArbitration::DS}) {
        SimSpec spec = workload;
        spec.predictor = predictor;
        spec.sub = sub;
        specs.push_back(spec);
      }
    }
  }
  SimSpec sized = base;
  sized.sized_capacity = 60.0;
  specs.insert(specs.begin() + 4, sized);

  const std::vector<SimResult> batch = run_sim_batch(specs);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(encode_sim_result(batch[i]),
              encode_sim_result(run_sim(specs[i])))
        << "spec " << i;
  }
}

TEST(SimBatch, RejectsWhatTheDriverRejects) {
  SimSpec ok;
  ok.driver = SimDriverKind::PrefetchCache;
  ok.requests = 200;
  SimSpec bad = ok;
  bad.bandwidth = 2.0;
  EXPECT_THROW(run_sim(bad), std::invalid_argument);
  const std::vector<SimSpec> specs = {ok, bad};
  EXPECT_THROW(run_sim_batch(specs), std::invalid_argument);
}

// ---- simctl substrate ---------------------------------------------------

TEST(SimShard, OwnershipPartitionsEveryIndexExactlyOnce) {
  for (const std::size_t shards : {1UL, 2UL, 3UL, 7UL}) {
    for (std::size_t index = 0; index < 40; ++index) {
      std::size_t owners = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        if (shard_owns(index, s, shards)) ++owners;
      }
      EXPECT_EQ(owners, 1u) << "index " << index << " shards " << shards;
    }
  }
  EXPECT_THROW(shard_owns(0, 2, 2), std::invalid_argument);
  EXPECT_THROW(shard_owns(0, 0, 0), std::invalid_argument);
}

// Emits the CSV document for the indices a shard owns (header + rows).
std::string emit_shard(const std::vector<SimSpec>& sweep,
                       const std::vector<SimResult>& results,
                       std::size_t shard, std::size_t shards) {
  std::ostringstream os;
  CsvWriter writer(os);
  writer.row(sim_csv_header());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (shard_owns(i, shard, shards)) {
      append_sim_csv_row(writer, i, sweep[i], results[i]);
    }
  }
  return os.str();
}

TEST(SimShard, MergedShardCsvEqualsSingleRun) {
  // A small sweep, every spec run once; shard documents are slices of the
  // same results, so the merge must reproduce the single document byte
  // for byte (this is the in-process version of the simctl_shard_merge
  // ctest, which exercises the real binary).
  std::vector<SimSpec> sweep;
  for (const PrefetchPolicy policy : {PrefetchPolicy::KP,
                                      PrefetchPolicy::SKP}) {
    for (const std::size_t cache : {4UL, 8UL, 12UL}) {
      SimSpec spec;
      spec.policy = policy;
      spec.cache_size = cache;
      spec.requests = 300;
      spec.seed = 2;
      sweep.push_back(spec);
    }
  }
  std::vector<SimResult> results;
  results.reserve(sweep.size());
  for (const SimSpec& spec : sweep) results.push_back(run_sim(spec));

  const std::string single = emit_shard(sweep, results, 0, 1);
  for (const std::size_t shards : {2UL, 3UL}) {
    std::vector<std::string> docs;
    for (std::size_t s = 0; s < shards; ++s) {
      docs.push_back(emit_shard(sweep, results, s, shards));
    }
    EXPECT_EQ(merge_sharded_csv(docs), single) << shards << " shards";
  }
}

TEST(SimCsv, HostileColumnsAndPerClientRows) {
  SimSpec spec = quick_multi_client_spec();
  spec.multi_client.phase_align = 0.8;
  spec.multi_client.churn_period = 300.0;
  spec.multi_client.churn_downtime = 50.0;
  spec.link_schedule = {{200.0, 1.0, 0.0}, {60.0, 0.25, 2.0}};
  const SimResult res = run_sim(spec);

  const std::vector<std::string> header = sim_csv_header();
  auto col = [&](const std::string& name) {
    const auto it = std::find(header.begin(), header.end(), name);
    EXPECT_NE(it, header.end()) << name;
    return static_cast<std::size_t>(it - header.begin());
  };
  std::ostringstream os;
  CsvWriter writer(os);
  writer.row(header);
  append_sim_csv_row(writer, 7, spec, res);
  std::istringstream lines(os.str());
  std::string line;
  std::getline(lines, line);  // header
  ASSERT_TRUE(std::getline(lines, line));
  std::vector<std::string> fields;
  std::istringstream fs(line);
  for (std::string f; std::getline(fs, f, ',');) fields.push_back(f);
  ASSERT_EQ(fields.size(), header.size());
  EXPECT_EQ(std::stod(fields[col("phase_align")]), 0.8);
  EXPECT_EQ(std::stod(fields[col("churn_period")]), 300.0);
  EXPECT_EQ(fields[col("link_phases")], "2");
  EXPECT_EQ(std::stoull(fields[col("churn_events")]), res.churn_events);
  EXPECT_GT(res.churn_events, 0u);

  // The per-client companion document: one row per client keyed by the
  // main document's spec index, quotas summing to the aggregate.
  std::ostringstream pcs;
  CsvWriter pc_writer(pcs);
  pc_writer.row(per_client_csv_header());
  append_per_client_csv_rows(pc_writer, 7, spec, res);
  std::istringstream pc_lines(pcs.str());
  std::getline(pc_lines, line);  // header
  std::uint64_t total_requests = 0;
  std::size_t rows = 0;
  while (std::getline(pc_lines, line)) {
    std::vector<std::string> pf;
    std::istringstream pfs(line);
    for (std::string f; std::getline(pfs, f, ',');) pf.push_back(f);
    ASSERT_EQ(pf.size(), per_client_csv_header().size());
    EXPECT_EQ(pf[0], "7");
    EXPECT_EQ(std::stoull(pf[1]), rows);  // client column is dense
    total_requests += std::stoull(pf[2]);
    ++rows;
  }
  EXPECT_EQ(rows, 3u);
  EXPECT_EQ(total_requests, res.metrics.requests);
}

TEST(SimShard, MergeRejectsBrokenDocuments) {
  const std::string header = "index,x\n";
  EXPECT_THROW(merge_sharded_csv({}), std::invalid_argument);
  // Missing index 1.
  EXPECT_THROW(merge_sharded_csv({header + "0,a\n", header + "2,c\n"}),
               std::invalid_argument);
  // Duplicate index.
  EXPECT_THROW(merge_sharded_csv({header + "0,a\n", header + "0,b\n"}),
               std::invalid_argument);
  // Header mismatch.
  EXPECT_THROW(merge_sharded_csv({header + "0,a\n", "index,y\n1,b\n"}),
               std::invalid_argument);
  // Non-numeric index.
  EXPECT_THROW(merge_sharded_csv({header + "zero,a\n"}),
               std::invalid_argument);
  // Happy path, input order irrelevant.
  EXPECT_EQ(merge_sharded_csv({header + "1,b\n", header + "0,a\n"}),
            header + "0,a\n1,b\n");
}

TEST(SimShard, MergeRejectsInterruptedPartialShards) {
  // A signal-interrupted simctl run emits a valid partial document with
  // a "# interrupted at spec N" trailer. Merging one must fail loudly —
  // accepting it would silently drop the specs the interrupted shard
  // never ran.
  const std::string header = "index,x\n";
  const std::string partial = header + "0,a\n# interrupted at spec 1\n";
  EXPECT_THROW(merge_sharded_csv({partial}), std::invalid_argument);
  EXPECT_THROW(merge_sharded_csv({header + "1,b\n", partial}),
               std::invalid_argument);
  // The diagnostic names the offending shard and the trailer.
  try {
    merge_sharded_csv({partial}, {"shard0.csv"});
    FAIL() << "expected rejection of the interrupted shard";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard0.csv"), std::string::npos) << what;
    EXPECT_NE(what.find("interrupted"), std::string::npos) << what;
  }
}

TEST(SimShard, MergeInterleavesPerClientCompanions) {
  // A per-client companion document (second column `client`) merges on
  // the (index, client) pair: shards own disjoint spec indices but every
  // shard carries ALL of its specs' client rows.
  const std::string header = "index,client,x\n";
  const std::string shard0 = header + "0,0,a\n0,1,b\n2,0,e\n2,1,f\n";
  const std::string shard1 = header + "1,0,c\n1,1,d\n";
  EXPECT_EQ(merge_sharded_csv({shard0, shard1}),
            header + "0,0,a\n0,1,b\n1,0,c\n1,1,d\n2,0,e\n2,1,f\n");
  // Input order irrelevant, like the main document.
  EXPECT_EQ(merge_sharded_csv({shard1, shard0}),
            merge_sharded_csv({shard0, shard1}));
}

TEST(SimShard, MergeRejectsBrokenPerClientDocuments) {
  const std::string header = "index,client,x\n";
  // Client rows must be dense from 0 within each index.
  EXPECT_THROW(merge_sharded_csv({header + "0,0,a\n0,2,c\n"}),
               std::invalid_argument);
  EXPECT_THROW(merge_sharded_csv({header + "0,1,b\n"}),
               std::invalid_argument);
  // Spec indices must still cover 0..max with no gap.
  EXPECT_THROW(merge_sharded_csv({header + "0,0,a\n2,0,c\n"}),
               std::invalid_argument);
  // Duplicate (index, client) pair across shards.
  EXPECT_THROW(
      merge_sharded_csv({header + "0,0,a\n", header + "0,0,b\n"}),
      std::invalid_argument);
  // Non-numeric client cell.
  EXPECT_THROW(merge_sharded_csv({header + "0,zero,a\n"}),
               std::invalid_argument);
  // A per-client shard cannot merge with a plain shard (header check).
  EXPECT_THROW(
      merge_sharded_csv({header + "0,0,a\n", "index,x\n1,b\n"}),
      std::invalid_argument);
}

}  // namespace
}  // namespace skp
