#include "sim/runtime.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "cache/replacement.hpp"
#include "sim/grounded.hpp"
#include "sim/multi_client.hpp"
#include "sim/netsim.hpp"
#include "sim/netsim_stepper.hpp"
#include "sim/prefetch_only.hpp"
#include "sim/skpd_loopback.hpp"
#include "sim/trace_replay.hpp"
#include "util/require.hpp"
#include "workload/adversarial_source.hpp"
#include "workload/markov_source.hpp"
#include "workload/request_stream.hpp"
#include "workload/zipf_source.hpp"

namespace skp {

namespace {

// to_markov_config / to_zipf_config / to_adversarial_config and the
// GroundedStreams layout live in sim/grounded.hpp now — the netsim
// stepper (and through it the skpd daemon) must agree on them byte for
// byte with the drivers here.

std::unique_ptr<ReplacementPolicy> make_runtime_policy(ReplacementKind kind,
                                                       std::uint64_t seed) {
  switch (kind) {
    case ReplacementKind::LRU: return make_lru();
    case ReplacementKind::FIFO: return make_fifo();
    case ReplacementKind::LFU: return make_lfu();
    case ReplacementKind::Random: return make_random(seed);
  }
  return make_lru();
}

// Reject-don't-drop: a spec field a driver cannot honor must fail the
// run, not silently fall back to a default the CSV then records as if it
// had been applied.
void require_default_net(const SimSpec& spec, const char* driver) {
  SKP_REQUIRE(spec.bandwidth == 1.0 && spec.latency == 0.0,
              driver << " does not model the network link; "
                        "bandwidth/latency apply to netsim_des/scenario");
}

void require_no_scenario_fields(const SimSpec& spec, const char* driver) {
  SKP_REQUIRE(!spec.pr_planning && spec.replacement == ReplacementKind::LRU,
              driver << " has no replacement-policy pipeline; "
                        "replacement/pr apply to the scenario driver");
}

void require_unsized(const SimSpec& spec, const char* driver) {
  SKP_REQUIRE(spec.sized_capacity == 0.0,
              driver << " has no byte-addressed cache; sized_capacity "
                        "applies to the prefetch_cache driver");
}

void require_single_client(const SimSpec& spec, const char* driver) {
  SKP_REQUIRE(spec.multi_client == MultiClientSpec{},
              driver << " is single-client; the multi_client section "
                        "applies to the multi_client driver");
}

void require_static_link(const SimSpec& spec, const char* driver) {
  SKP_REQUIRE(spec.link_schedule.empty(),
              driver << " has no simulated link timeline; link_schedule "
                        "applies to netsim_des/multi_client");
}

void require_reliable_full_effort(const SimSpec& spec, const char* driver) {
  SKP_REQUIRE(spec.fault == FaultSpec{},
              driver << " has no simulated transfer path to fail; the "
                        "fault section applies to netsim_des/multi_client");
  SKP_REQUIRE(spec.overload == OverloadConfig{} && spec.deadline == 0.0,
              driver << " has no realized waiting times to watch; "
                        "overload/deadline apply to netsim_des/"
                        "multi_client");
}

// ---- Drivers ------------------------------------------------------------

SimResult run_prefetch_only_driver(const SimSpec& spec) {
  const SimWorkload& w = spec.workload;
  SKP_REQUIRE(w.kind == SimWorkloadKind::Iid,
              "prefetch_only redraws P each iteration — use an iid "
              "workload");
  SKP_REQUIRE(spec.predictor == PredictorKind::Oracle,
              "prefetch_only has no predictor pipeline");
  SKP_REQUIRE(spec.warmup == 0 && spec.predictor_warmup == 0,
              "prefetch_only has no warmup phase");
  // Reject rather than silently drop fields this protocol cannot honor:
  // the cache is flushed per iteration, so there is no sub-arbitration
  // and no profit thresholding to apply.
  SKP_REQUIRE(spec.sub == SubArbitration::None,
              "prefetch_only has no cache to sub-arbitrate");
  SKP_REQUIRE(spec.min_profit_threshold == 0.0,
              "prefetch_only does not support min_profit_threshold");
  require_default_net(spec, "prefetch_only");
  require_no_scenario_fields(spec, "prefetch_only");
  require_unsized(spec, "prefetch_only");
  require_single_client(spec, "prefetch_only");
  require_static_link(spec, "prefetch_only");
  require_reliable_full_effort(spec, "prefetch_only");
  PrefetchOnlyConfig cfg;
  cfg.n_items = w.n_items;
  cfg.method = w.method;
  cfg.skew_exponent = w.skew_exponent;
  cfg.r_lo = w.r_lo;
  cfg.r_hi = w.r_hi;
  cfg.v_lo = w.v_lo;
  cfg.v_hi = w.v_hi;
  cfg.integer_times = w.integer_times;
  cfg.policy = spec.policy;
  cfg.delta_rule = spec.delta_rule;
  cfg.iterations = spec.requests;
  cfg.seed = spec.seed;

  PrefetchOnlyResult res = run_prefetch_only(cfg);
  SimResult out;
  out.metrics = res.metrics;
  out.avg_T_by_v.emplace(std::move(res.avg_T_by_v));
  return out;
}

SimResult from_prefetch_cache_result(const PrefetchCacheResult& res) {
  SimResult out;
  out.metrics = res.metrics;
  out.plan_cache = res.plan_cache;
  out.over_viewing_time = res.over_viewing_time;
  return out;
}

// The slot-cache prefetch_cache lowering, shared by the driver and the
// lockstep batch path; the workload's source is the caller's.
PrefetchCacheConfig lower_prefetch_cache(const SimSpec& spec) {
  PrefetchCacheConfig cfg;
  cfg.cache_size = spec.cache_size;
  cfg.policy = spec.policy;
  cfg.sub = spec.sub;
  cfg.delta_rule = spec.delta_rule;
  cfg.requests = spec.requests;
  cfg.warmup = spec.warmup;
  cfg.seed = spec.seed;
  cfg.predictor = spec.predictor;
  cfg.predictor_min_prob = spec.predictor_min_prob;
  cfg.min_profit_threshold = spec.min_profit_threshold;
  cfg.use_plan_cache = spec.use_plan_cache;
  cfg.plan_cache_capacity = spec.plan_cache_capacity;
  if (spec.workload.kind == SimWorkloadKind::Markov ||
      spec.workload.kind == SimWorkloadKind::MarkovDrift) {
    cfg.source = to_markov_config(spec.workload);
  }
  if (spec.workload.kind == SimWorkloadKind::MarkovDrift) {
    cfg.drift_period = spec.workload.drift_period;
  }
  return cfg;
}

// The prefetch_cache driver's checks, shared with run_sim_batch so a
// spec the driver rejects throws there too.
void check_prefetch_cache_spec(const SimSpec& spec) {
  SKP_REQUIRE(spec.predictor_warmup == 0,
              "prefetch_cache has no observe-only prefix; use warmup to "
              "exclude leading requests from metrics");
  require_default_net(spec, "prefetch_cache");
  require_no_scenario_fields(spec, "prefetch_cache");
  require_single_client(spec, "prefetch_cache");
  require_static_link(spec, "prefetch_cache");
  require_reliable_full_effort(spec, "prefetch_cache");
  if (spec.sized_capacity > 0.0) {
    SKP_REQUIRE(spec.workload.kind == SimWorkloadKind::Markov,
                "the sized-cache experiment runs the Markov workload");
    SKP_REQUIRE(spec.predictor == PredictorKind::Oracle,
                "the sized-cache experiment is oracle-mode only");
    SKP_REQUIRE(spec.min_profit_threshold == 0.0,
                "the sized-cache experiment does not support "
                "min_profit_threshold");
  }
}

SimResult run_prefetch_cache_driver(const SimSpec& spec) {
  const SimWorkload& w = spec.workload;
  check_prefetch_cache_spec(spec);
  if (spec.sized_capacity > 0.0) {
    SizedExperimentConfig cfg;
    cfg.source = to_markov_config(w);
    cfg.capacity = spec.sized_capacity;
    cfg.size_per_r = spec.size_per_r;
    cfg.size_lo = spec.size_lo;
    cfg.size_hi = spec.size_hi;
    cfg.policy = spec.policy;
    cfg.sub = spec.sub;
    cfg.delta_rule = spec.delta_rule;
    cfg.requests = spec.requests;
    cfg.warmup = spec.warmup;
    cfg.seed = spec.seed;
    cfg.use_plan_cache = spec.use_plan_cache;
    cfg.plan_cache_capacity = spec.plan_cache_capacity;
    return from_prefetch_cache_result(run_prefetch_cache_sized(cfg));
  }

  const PrefetchCacheConfig cfg = lower_prefetch_cache(spec);
  switch (w.kind) {
    case SimWorkloadKind::Markov:
    case SimWorkloadKind::MarkovDrift:
      return from_prefetch_cache_result(run_prefetch_cache(cfg));
    case SimWorkloadKind::Zipf:
    case SimWorkloadKind::Adversarial: {
      // Mirror the default entry point's stream split: the source is
      // built from Rng(seed), the walk from its kPrefetchCacheWalkSalt child.
      Rng build(spec.seed);
      MarkovSource source =
          w.kind == SimWorkloadKind::Zipf
              ? make_zipf_source(to_zipf_config(w), build)
              : make_adversarial_source(to_adversarial_config(w), build);
      Rng walk = build.split(kPrefetchCacheWalkSalt);
      source.teleport(0);
      return from_prefetch_cache_result(
          run_prefetch_cache(cfg, source, walk));
    }
    default:
      SKP_REQUIRE(false,
                  "prefetch_cache supports markov | markov_drift | zipf | "
                  "adversarial workloads");
  }
  return {};
}

SimResult run_trace_replay_driver(const SimSpec& spec) {
  SKP_REQUIRE(spec.predictor != PredictorKind::Oracle,
              "trace replay has no oracle probabilities");
  SKP_REQUIRE(spec.predictor_warmup == 0,
              "trace replay has no observe-only prefix; use warmup to "
              "exclude leading requests from metrics");
  require_default_net(spec, "trace_replay");
  require_no_scenario_fields(spec, "trace_replay");
  require_unsized(spec, "trace_replay");
  require_single_client(spec, "trace_replay");
  require_static_link(spec, "trace_replay");
  require_reliable_full_effort(spec, "trace_replay");
  Rng root(spec.seed);
  Rng build = root.split(1);
  Rng walk = root.split(2);
  const MaterializedWorkload w =
      materialize_workload(spec.workload, spec.requests, build, walk);

  Trace trace(w.n_items, w.retrieval_times);
  for (const TraceRecord& rec : w.cycles) {
    trace.append(rec.item, rec.viewing_time);
  }

  TraceReplayConfig cfg;
  cfg.cache_size = spec.cache_size;
  cfg.policy = spec.policy;
  cfg.sub = spec.sub;
  cfg.delta_rule = spec.delta_rule;
  cfg.predictor = spec.predictor;
  cfg.predictor_min_prob = spec.predictor_min_prob;
  cfg.min_profit_threshold = spec.min_profit_threshold;
  cfg.warmup = spec.warmup;

  SimResult out;
  out.metrics = replay_trace(trace, cfg);
  return out;
}

SimResult run_netsim_des_driver(const SimSpec& spec) {
  // The whole decision path — validation, stream layout, per-cycle loop
  // body — lives in sim/netsim_stepper.hpp, shared with the skpd daemon.
  // Keeping this driver a trivial drain of the stepper is what makes
  // "daemon-served sessions match the in-process golden" structural.
  NetsimStepper stepper(spec);
  while (!stepper.done()) stepper.step();
  return stepper.result();
}

SimResult run_scenario_driver(const SimSpec& spec) {
  SKP_REQUIRE(spec.warmup == 0,
              "the scenario pipeline counts every request; use "
              "predictor_warmup for the observe-only prefix");
  require_unsized(spec, "scenario");
  require_single_client(spec, "scenario");
  // The scenario pipeline consumes the net only as a static r catalog;
  // it has no clock for a phase schedule to vary against.
  require_static_link(spec, "scenario");
  require_reliable_full_effort(spec, "scenario");
  const std::size_t n = spec.workload.n_items;
  GroundedStreams g = ground_streams(spec);
  const std::vector<double> r = g.catalog.retrieval_times(g.net);

  const MaterializedWorkload mat =
      materialize_workload(spec.workload, spec.requests, g.build, g.walk);

  auto predictor = make_runtime_predictor(spec.predictor, n);
  auto policy =
      make_runtime_policy(spec.replacement, g.root.split(4).next_u64());
  SlotCache cache(n, spec.cache_size);
  FreqTracker freq(n);  // Pr-arbitration sub-score substrate
  cache.key_order(spec.sub, &freq, r);

  EngineConfig ecfg;
  ecfg.policy = spec.policy;
  ecfg.delta_rule = spec.delta_rule;
  ecfg.arbitration.sub = spec.sub;
  ecfg.min_profit_threshold = spec.min_profit_threshold;
  const PrefetchEngine engine(ecfg);

  SimResult res;
  SimMetrics& m = res.metrics;
  constexpr double kEps = 1e-9;
  // Borrowed-view planning (allocation-free across cycles): P lives in
  // the scratch buffer, r in the catalog vector above.
  PlanScratch scratch;
  PrefetchPlan plan;
  for (std::size_t i = 0; i < mat.cycles.size(); ++i) {
    const ItemId item = mat.cycles[i].item;
    const double v = mat.cycles[i].viewing_time;

    if (i >= spec.predictor_warmup) {
      predictor->predict_into(scratch.P);
      double mass = 0.0;
      for (std::size_t j = 0; j < scratch.P.size(); ++j) {
        // Shortlist: drop sliver mass; without Pr-arbitration planning
        // additionally zero cached items (planning over N \ C,
        // Section 5 — the Figure-6 planner does its own N \ C
        // filtering).
        if (scratch.P[j] < spec.predictor_min_prob ||
            (!spec.pr_planning &&
             cache.contains(static_cast<ItemId>(j)))) {
          scratch.P[j] = 0.0;
        }
        mass += scratch.P[j];
      }
      if (mass > 0.0) {
        const InstanceView inst(scratch.P, r, v);
        if (spec.pr_planning) {
          engine.plan_with_cache(inst, cache, &freq, PlanMemo{}, scratch,
                                 plan);
        } else {
          engine.plan(inst, scratch, plan);
        }
        m.solver_nodes += plan.solver_nodes;
        // Bandwidth budget (Eq. 1): every fetch but the last must finish
        // within v; plain KP may not stretch at all.
        double prefix = 0.0;
        for (std::size_t k = 0; k + 1 < plan.fetch.size(); ++k) {
          prefix += r[Instance::idx(plan.fetch[k])];
        }
        double budget_used = prefix;
        if (spec.policy == PrefetchPolicy::KP && !plan.fetch.empty()) {
          budget_used += r[Instance::idx(plan.fetch.back())];
        }
        if (budget_used > v + kEps) {
          ++res.budget_violations;
          res.worst_budget_overrun =
              std::max(res.worst_budget_overrun, budget_used - v);
        }
        if (!plan.fetch.empty()) ++res.plans;
        if (spec.pr_planning) {
          // Figure-6 execution: each admitted fetch claims its
          // Pr-arbitrated victim once the cache is full; the replacement
          // policy's books are kept consistent so demand misses still
          // work on accurate state.
          std::size_t victim_idx = 0;
          for (const ItemId f : plan.fetch) {
            if (cache.full()) {
              const ItemId victim = plan.evict[victim_idx++];
              cache.erase(victim);
              policy->on_evict(victim);
            }
            cache.insert(f);
            policy->on_insert(f);
            ++m.prefetch_fetches;
            m.prefetch_network_time += r[Instance::idx(f)];
          }
        } else {
          for (const ItemId f : plan.fetch) {
            if (cache.contains(f)) continue;  // zero-profit filler
            if (cache.full()) {
              const ItemId victim = policy->choose_victim(cache);
              cache.erase(victim);
              policy->on_evict(victim);
            }
            cache.insert(f);
            policy->on_insert(f);
            ++m.prefetch_fetches;
            m.prefetch_network_time += r[Instance::idx(f)];
          }
        }
      }
    }

    if (cache.contains(item)) {
      ++m.hits;
      policy->on_access(item);
    } else {
      ++m.demand_fetches;
      m.demand_network_time += r[Instance::idx(item)];
      access_with_policy(cache, *policy, item);
    }
    ++m.requests;
    cache.record_access(freq, item);
    SKP_ASSERT(cache.order_consistent());
    predictor->observe(item);
  }
  m.network_time = m.prefetch_network_time + m.demand_network_time;
  return res;
}

SimResult run_multi_client_des_driver(const SimSpec& spec) {
  const MultiClientSpec& mc = spec.multi_client;
  SKP_REQUIRE(mc.clients >= 1, "multi_client needs at least one client");
  SKP_REQUIRE(mc.overrides.empty() || mc.overrides.size() == mc.clients,
              "multi_client overrides must have one entry per client "
              "(got " << mc.overrides.size() << " for " << mc.clients
                      << " clients)");
  SKP_REQUIRE(spec.warmup == 0,
              "multi_client counts every request; use predictor_warmup "
              "for an observe-only prefix");
  require_no_scenario_fields(spec, "multi_client");
  require_unsized(spec, "multi_client");
  const std::size_t n = spec.workload.n_items;

  // Shared grounded catalog: the netsim_des/scenario stream layout, so a
  // multi_client row is comparable with the single-client rows of the
  // same config (the clients' chains keep their own P/v draws; only the
  // retrieval-time catalog is shared — items are per-client, the link
  // and the server catalog are not).
  GroundedStreams g = ground_streams(spec);

  MultiClientConfig cfg;
  cfg.n_clients = mc.clients;
  cfg.source = to_markov_config(spec.workload);
  cfg.link_speedup = mc.link_speedup;
  cfg.phase_align = mc.phase_align;
  cfg.churn_period = mc.churn_period;
  cfg.churn_downtime = mc.churn_downtime;
  cfg.link_schedule = spec.link_schedule;
  cfg.cache_size = spec.cache_size;
  cfg.engine.policy = spec.policy;
  cfg.engine.delta_rule = spec.delta_rule;
  cfg.engine.arbitration.sub = spec.sub;
  cfg.engine.min_profit_threshold = spec.min_profit_threshold;
  cfg.engine.evaluate_plan_g = false;
  cfg.requests_per_client = spec.requests;
  cfg.seed = spec.seed;
  cfg.use_plan_cache = spec.use_plan_cache;
  cfg.plan_cache_capacity = spec.plan_cache_capacity;
  cfg.predictor = spec.predictor;
  cfg.predictor_min_prob = spec.predictor_min_prob;
  cfg.predictor_warmup = spec.predictor_warmup;
  cfg.retrieval_times = g.catalog.retrieval_times(g.net);
  cfg.fault = spec.fault;
  cfg.overload = spec.overload;
  cfg.deadline = spec.deadline;

  cfg.overrides.resize(mc.clients);
  for (std::size_t c = 0; c < mc.clients; ++c) {
    const MultiClientOverride* ov =
        mc.overrides.empty() ? nullptr : &mc.overrides[c];
    const SimWorkload w = ov && ov->workload ? *ov->workload
                                             : spec.workload;
    SKP_REQUIRE(w.n_items == n,
                "multi_client clients must share n_items (one grounded "
                "catalog serves every client)");
    const PredictorKind predictor =
        ov && ov->predictor ? *ov->predictor : spec.predictor;
    // Per-client private streams derived from (effective seed, client
    // index): homogeneous clients walk distinct trajectories, and
    // reseeding or reshaping one client never shifts another.
    const std::uint64_t base_seed = ov && ov->seed ? *ov->seed : spec.seed;
    Rng mix(base_seed);
    const std::uint64_t client_seed = mix.split(1000 + c).next_u64();

    // Per-client cycle quota: a total request budget split by the caller
    // (scenario harness) must not silently drop its remainder, so the
    // quota rides the override all the way into the DES.
    const std::size_t quota =
        ov && ov->requests ? *ov->requests : spec.requests;
    SKP_REQUIRE(quota >= 1, "client " << c << " quota must be >= 1");

    MultiClientConfig::ClientOverride& out = cfg.overrides[c];
    out.seed = client_seed;
    out.predictor = predictor;
    out.requests = quota;
    if (ov) {
      out.churn_period = ov->churn_period;
      out.churn_downtime = ov->churn_downtime;
    }
    if (predictor == PredictorKind::Oracle) {
      SKP_REQUIRE(w.kind == SimWorkloadKind::Markov,
                  "oracle multi_client clients walk a markov chain; "
                  "learned predictors unlock iid/zipf/drift/trace/"
                  "adversarial workloads");
      out.source = to_markov_config(w);
    } else {
      // Scripted learned drive: materialize the client's cycle script
      // with the same stream layout a private-seeded chain would use.
      Rng root(client_seed);
      Rng build = root.split(1);
      Rng walk = root.split(2);
      out.cycles = materialize_workload(w, quota, build, walk).cycles;
    }
  }

  const MultiClientResult res = run_multi_client(cfg);
  SimResult out;
  out.metrics = res.aggregate;
  out.per_client = res.per_client;
  out.plan_cache = res.plan_cache;
  out.plans = res.plans;
  out.churn_events = res.churn_events;
  out.link_utilization = res.link_utilization();
  out.fault = res.fault;
  out.overload = res.overload;
  out.deadline_hits = res.deadline_hits;
  return out;
}

constexpr SimDriver kDrivers[] = {
    {SimDriverKind::PrefetchOnly, "prefetch_only",
     &run_prefetch_only_driver},
    {SimDriverKind::PrefetchCache, "prefetch_cache",
     &run_prefetch_cache_driver},
    {SimDriverKind::TraceReplay, "trace_replay",
     &run_trace_replay_driver},
    {SimDriverKind::NetsimDes, "netsim_des", &run_netsim_des_driver},
    {SimDriverKind::Scenario, "scenario", &run_scenario_driver},
    {SimDriverKind::MultiClientDes, "multi_client",
     &run_multi_client_des_driver},
    {SimDriverKind::SkpdLoopback, "skpd_loopback",
     &run_skpd_loopback_driver},
};

}  // namespace

// ---- Registry -----------------------------------------------------------

std::span<const SimDriver> driver_registry() { return kDrivers; }

const SimDriver& find_driver(SimDriverKind kind) {
  for (const SimDriver& d : kDrivers) {
    if (d.kind == kind) return d;
  }
  SKP_REQUIRE(false, "unregistered driver kind");
  return kDrivers[0];
}

const SimDriver* find_driver(std::string_view name) {
  for (const SimDriver& d : kDrivers) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

namespace {

// The checks every spec passes before any driver runs it.
void check_common(const SimSpec& spec) {
  SKP_REQUIRE(spec.workload.n_items >= 2, "n_items must be >= 2");
  SKP_REQUIRE(spec.requests >= 1, "requests must be >= 1");
}

}  // namespace

SimResult run_sim(const SimSpec& spec) {
  check_common(spec);
  return find_driver(spec.driver).run(spec);
}

// ---- Batched execution ---------------------------------------------------

namespace {

// A prefetch_cache spec the driver accepts routes through
// run_prefetch_cache_batch when it runs the slot cache over a seed-built
// Markov chain — the runner's default entry point, which takes oracle,
// learned-predictor and drifting lanes alike.
bool lockstep_spec(const SimSpec& spec) {
  return spec.sized_capacity == 0.0 &&
         (spec.workload.kind == SimWorkloadKind::Markov ||
          spec.workload.kind == SimWorkloadKind::MarkovDrift);
}

bool same_batch_workload(const PrefetchCacheConfig& a,
                         const PrefetchCacheConfig& b) {
  return a.source == b.source && a.seed == b.seed &&
         a.requests == b.requests && a.drift_period == b.drift_period;
}

}  // namespace

std::vector<SimResult> run_sim_batch(std::span<const SimSpec> specs) {
  // Lanes carry full-occupancy plan caches and their own slot caches, so
  // cap lockstep groups rather than let a giant sweep hold every lane's
  // memo tiers live at once.
  constexpr std::size_t kMaxLanes = 16;

  std::vector<SimResult> results(specs.size());
  std::vector<std::optional<PrefetchCacheConfig>> lowered(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].driver != SimDriverKind::PrefetchCache) continue;
    check_common(specs[i]);
    check_prefetch_cache_spec(specs[i]);
    if (lockstep_spec(specs[i])) lowered[i] = lower_prefetch_cache(specs[i]);
  }

  std::size_t i = 0;
  while (i < specs.size()) {
    if (!lowered[i]) {
      results[i] = run_sim(specs[i]);
      ++i;
      continue;
    }
    // Greedy run of consecutive lanes sharing the workload; a run of one
    // is a one-lane batch, exactly what run_sim would execute.
    std::size_t j = i + 1;
    while (j < specs.size() && j - i < kMaxLanes && lowered[j] &&
           same_batch_workload(*lowered[i], *lowered[j])) {
      ++j;
    }
    std::vector<PrefetchCacheConfig> cfgs;
    cfgs.reserve(j - i);
    for (std::size_t k = i; k < j; ++k) cfgs.push_back(*lowered[k]);
    const std::vector<PrefetchCacheResult> batch =
        run_prefetch_cache_batch(cfgs);
    for (std::size_t k = i; k < j; ++k) {
      results[k] = from_prefetch_cache_result(batch[k - i]);
    }
    i = j;
  }
  return results;
}

// ---- String forms -------------------------------------------------------

const char* to_string(SimDriverKind kind) {
  return find_driver(kind).name;
}

const char* to_string(SimWorkloadKind kind) {
  switch (kind) {
    case SimWorkloadKind::Markov: return "markov";
    case SimWorkloadKind::Iid: return "iid";
    case SimWorkloadKind::Zipf: return "zipf";
    case SimWorkloadKind::MarkovDrift: return "markov_drift";
    case SimWorkloadKind::TraceText: return "trace_text";
    case SimWorkloadKind::Adversarial: return "adversarial";
  }
  return "?";
}

const char* to_string(ReplacementKind kind) {
  switch (kind) {
    case ReplacementKind::LRU: return "lru";
    case ReplacementKind::FIFO: return "fifo";
    case ReplacementKind::LFU: return "lfu";
    case ReplacementKind::Random: return "random";
  }
  return "?";
}

const char* policy_token(PrefetchPolicy policy) {
  switch (policy) {
    case PrefetchPolicy::None: return "none";
    case PrefetchPolicy::KP: return "kp";
    case PrefetchPolicy::SKP: return "skp";
    case PrefetchPolicy::Perfect: return "perfect";
  }
  return "?";
}

const char* sub_token(SubArbitration sub) {
  switch (sub) {
    case SubArbitration::None: return "none";
    case SubArbitration::LFU: return "lfu";
    case SubArbitration::DS: return "ds";
  }
  return "?";
}

const char* delta_token(DeltaRule rule) {
  switch (rule) {
    case DeltaRule::ExactComplement: return "exact";
    case DeltaRule::PaperTail: return "paper";
  }
  return "?";
}

namespace {

template <typename Enum, std::size_t N>
std::optional<Enum> parse_token(
    std::string_view name, const std::pair<const char*, Enum> (&table)[N]) {
  for (const auto& [token, value] : table) {
    if (name == token) return value;
  }
  return std::nullopt;
}

}  // namespace

std::optional<SimDriverKind> parse_driver_kind(std::string_view name) {
  if (const SimDriver* d = find_driver(name)) return d->kind;
  return std::nullopt;
}

std::optional<SimWorkloadKind> parse_workload_kind(std::string_view name) {
  static constexpr std::pair<const char*, SimWorkloadKind> table[] = {
      {"markov", SimWorkloadKind::Markov},
      {"iid", SimWorkloadKind::Iid},
      {"zipf", SimWorkloadKind::Zipf},
      {"markov_drift", SimWorkloadKind::MarkovDrift},
      {"trace_text", SimWorkloadKind::TraceText},
      {"adversarial", SimWorkloadKind::Adversarial},
  };
  return parse_token(name, table);
}

std::optional<ReplacementKind> parse_replacement_kind(
    std::string_view name) {
  static constexpr std::pair<const char*, ReplacementKind> table[] = {
      {"lru", ReplacementKind::LRU},
      {"fifo", ReplacementKind::FIFO},
      {"lfu", ReplacementKind::LFU},
      {"random", ReplacementKind::Random},
  };
  return parse_token(name, table);
}

std::optional<PrefetchPolicy> parse_policy(std::string_view name) {
  static constexpr std::pair<const char*, PrefetchPolicy> table[] = {
      {"none", PrefetchPolicy::None},
      {"kp", PrefetchPolicy::KP},
      {"skp", PrefetchPolicy::SKP},
      {"perfect", PrefetchPolicy::Perfect},
  };
  return parse_token(name, table);
}

std::optional<SubArbitration> parse_sub_arbitration(std::string_view name) {
  static constexpr std::pair<const char*, SubArbitration> table[] = {
      {"none", SubArbitration::None},
      {"lfu", SubArbitration::LFU},
      {"ds", SubArbitration::DS},
  };
  return parse_token(name, table);
}

std::optional<DeltaRule> parse_delta_rule(std::string_view name) {
  static constexpr std::pair<const char*, DeltaRule> table[] = {
      {"exact", DeltaRule::ExactComplement},
      {"paper", DeltaRule::PaperTail},
  };
  return parse_token(name, table);
}

std::optional<PredictorKind> parse_predictor_kind(std::string_view name) {
  static constexpr std::pair<const char*, PredictorKind> table[] = {
      {"oracle", PredictorKind::Oracle},
      {"markov1", PredictorKind::Markov1},
      {"ppm", PredictorKind::Ppm},
      {"depgraph", PredictorKind::DependencyWindow},
      {"lz78", PredictorKind::Lz78},
  };
  return parse_token(name, table);
}

std::optional<ProbMethod> parse_prob_method(std::string_view name) {
  static constexpr std::pair<const char*, ProbMethod> table[] = {
      {"skewy", ProbMethod::Skewy},
      {"flat", ProbMethod::Flat},
  };
  return parse_token(name, table);
}

// ---- Workload materialization -------------------------------------------

MaterializedWorkload materialize_workload(const SimWorkload& w,
                                          std::size_t requests, Rng& build,
                                          Rng& walk) {
  SKP_REQUIRE(w.n_items >= 2, "n_items must be >= 2");
  MaterializedWorkload out;
  out.n_items = w.n_items;
  out.cycles.reserve(requests);
  switch (w.kind) {
    case SimWorkloadKind::Markov:
    case SimWorkloadKind::MarkovDrift:
    case SimWorkloadKind::Zipf:
    case SimWorkloadKind::Adversarial: {
      const MarkovSourceConfig mcfg = to_markov_config(w);
      MarkovSource src =
          w.kind == SimWorkloadKind::Zipf
              ? make_zipf_source(to_zipf_config(w), build)
          : w.kind == SimWorkloadKind::Adversarial
              ? make_adversarial_source(to_adversarial_config(w), build)
              : MarkovSource(mcfg, build);
      Rng drift_rng = build.split(kPrefetchCacheDriftSalt);
      const std::size_t period =
          w.kind == SimWorkloadKind::MarkovDrift ? w.drift_period : 0;
      for (std::size_t i = 0; i < requests; ++i) {
        if (period != 0 && i != 0 && i % period == 0) {
          src.redraw_transitions(mcfg, drift_rng);
        }
        const double v = src.viewing_time(src.current_state());
        const auto item = static_cast<ItemId>(src.step(walk));
        out.cycles.push_back({item, v});
      }
      out.retrieval_times.assign(src.retrieval_times().begin(),
                                 src.retrieval_times().end());
      break;
    }
    case SimWorkloadKind::Iid: {
      Instance inst;
      inst.P = w.method == ProbMethod::Skewy
                   ? skewy_probabilities(w.n_items, build, w.skew_exponent)
                   : flat_probabilities(w.n_items, build);
      inst.r.assign(w.n_items, 1.0);  // placeholder; re-drawn below
      inst.v = w.iid_viewing_time;
      IidStream stream(std::move(inst));
      for (std::size_t i = 0; i < requests; ++i) {
        const RequestEvent e = stream.next(walk);
        out.cycles.push_back({e.item, e.instance.v});
      }
      // Catalog retrieval times drawn after the row so consumers that
      // re-ground r elsewhere (scenario/netsim catalogs) see the same P.
      out.retrieval_times.resize(w.n_items);
      for (auto& r : out.retrieval_times) {
        r = build.uniform_time(w.r_lo, w.r_hi, w.integer_times);
      }
      break;
    }
    case SimWorkloadKind::TraceText: {
      const MarkovSourceConfig mcfg = to_markov_config(w);
      MarkovSource src(mcfg, build);
      Trace recorded(w.n_items,
                     std::vector<double>(src.retrieval_times().begin(),
                                         src.retrieval_times().end()));
      for (std::size_t i = 0; i < requests; ++i) {
        const double v = src.viewing_time(src.current_state());
        recorded.append(static_cast<ItemId>(src.step(walk)), v);
      }
      std::stringstream io;
      recorded.save(io);
      const Trace replayed = Trace::load(io);
      out.cycles.assign(replayed.records().begin(),
                        replayed.records().end());
      out.retrieval_times = replayed.retrieval_times();
      break;
    }
  }
  return out;
}

// ---- simctl substrate ---------------------------------------------------

bool shard_owns(std::size_t index, std::size_t shard_index,
                std::size_t shard_count) {
  SKP_REQUIRE(shard_count >= 1, "shard count must be >= 1");
  SKP_REQUIRE(shard_index < shard_count,
              "shard index " << shard_index << " out of range 0.."
                             << shard_count - 1);
  return index % shard_count == shard_index;
}

std::vector<std::string> sim_csv_header() {
  return {
      "index",          "driver",
      "workload",       "n_items",
      "policy",         "sub",
      "delta",          "predictor",
      "min_prob",       "predictor_warmup",
      "replacement",    "pr_planning",
      "cache_size",     "sized_capacity",
      "size_per_r",     "requests",
      "warmup",         "seed",
      "bandwidth",      "latency",
      "threshold",      "drift_period",
      "clients",        "phase_align",
      "churn_period",   "link_phases",
      "plan_cache",
      "hit_rate",       "mean_T",
      "net_per_req",    "prefetch_net",
      "demand_net",     "hits",
      "resident_hits",  "demand",
      "prefetched",
      "wasted",         "solver_nodes",
      "plan_hit_rate",  "select_hit_rate",
      "plans",          "budget_violations",
      "link_util",      "over_viewing",
      "churn_events",   "fail_rate",
      "stall_rate",     "timeout",
      "retry_max",      "overload",
      "deadline",       "failed",
      "fault_retries",  "abandoned",
      "rung_transitions", "max_rung",
      "degraded",       "deadline_hits",
  };
}

void append_sim_csv_row(CsvWriter& writer, std::size_t index,
                        const SimSpec& spec, const SimResult& result) {
  const SimMetrics& m = result.metrics;
  // Spec cells record the values actually in force, not inert struct
  // defaults: a field no simulator consulted (the slot size of a sized
  // or flush-per-request run, the shortlist floor of an oracle run, the
  // drift period of a static workload) prints as its zero so the sweep
  // document never claims a parameter study that did not happen.
  const bool slot_cache = spec.driver != SimDriverKind::PrefetchOnly &&
                          spec.sized_capacity == 0.0;
  const bool learned = spec.predictor != PredictorKind::Oracle;
  const std::size_t drift_period =
      spec.workload.kind == SimWorkloadKind::MarkovDrift
          ? spec.workload.drift_period
          : 0;
  const bool multi = spec.driver == SimDriverKind::MultiClientDes;
  const std::size_t clients = multi ? spec.multi_client.clients : 0;
  const double phase_align = multi ? spec.multi_client.phase_align : 0.0;
  const double churn_period = multi ? spec.multi_client.churn_period : 0.0;
  const bool des = multi || spec.driver == SimDriverKind::NetsimDes;
  const std::size_t link_phases = des ? spec.link_schedule.size() : 0;
  const bool faulty = des && spec.fault.enabled();
  writer.row_of(
      index, to_string(spec.driver), to_string(spec.workload.kind),
      spec.workload.n_items, policy_token(spec.policy),
      sub_token(spec.sub), delta_token(spec.delta_rule),
      to_string(spec.predictor),
      learned ? spec.predictor_min_prob : 0.0,
      spec.predictor_warmup, to_string(spec.replacement),
      spec.pr_planning ? 1 : 0, slot_cache ? spec.cache_size : 0,
      spec.sized_capacity,
      spec.size_per_r, spec.requests, spec.warmup, spec.seed,
      spec.bandwidth, spec.latency,
      spec.min_profit_threshold, drift_period,
      clients, phase_align, churn_period, link_phases,
      spec.use_plan_cache ? 1 : 0, m.hit_rate(),
      m.mean_access_time(),
      m.network_time_per_request(), m.prefetch_network_time,
      m.demand_network_time, m.hits, result.resident_hits(),
      m.demand_fetches, m.prefetch_fetches,
      m.wasted_prefetches, m.solver_nodes,
      result.plan_cache.plans.hit_rate(),
      result.plan_cache.selections.hit_rate(), result.plans,
      result.budget_violations, result.link_utilization,
      result.over_viewing_time, result.churn_events,
      faulty ? spec.fault.fail_rate : 0.0,
      faulty ? spec.fault.stall_rate : 0.0,
      faulty ? spec.fault.timeout : 0.0,
      faulty ? spec.fault.retry.max_attempts : 0,
      des && spec.overload.enabled ? 1 : 0, des ? spec.deadline : 0.0,
      result.fault.failed_transfers, result.fault.retries,
      result.fault.abandoned, result.overload.transitions,
      result.overload.max_rung, result.overload.degraded_requests,
      result.deadline_hits);
}

std::vector<std::string> per_client_csv_header() {
  return {
      "index",      "client",        "requests",
      "hit_rate",   "mean_T",        "net_per_req",
      "hits",       "resident_hits", "demand",
      "prefetched", "wasted",        "solver_nodes",
  };
}

void append_per_client_csv_rows(CsvWriter& writer, std::size_t index,
                                const SimSpec& spec,
                                const SimResult& result) {
  (void)spec;
  for (std::size_t c = 0; c < result.per_client.size(); ++c) {
    const SimMetrics& m = result.per_client[c];
    writer.row_of(index, c, m.requests, m.hit_rate(),
                  m.mean_access_time(), m.network_time_per_request(),
                  m.hits, m.requests - m.demand_fetches, m.demand_fetches,
                  m.prefetch_fetches, m.wasted_prefetches, m.solver_nodes);
  }
}

std::string merge_sharded_csv(const std::vector<std::string>& shards,
                              const std::vector<std::string>& names) {
  SKP_REQUIRE(!shards.empty(), "no shard documents to merge");
  SKP_REQUIRE(names.empty() || names.size() == shards.size(),
              "shard name list must match the document list");
  const auto shard_name = [&](std::size_t i) {
    return names.empty() ? "shard document #" + std::to_string(i + 1)
                         : names[i];
  };
  const auto parse_field = [](const std::string& text, const char* what) {
    std::size_t pos = 0;
    std::size_t value = 0;
    try {
      value = std::stoull(text, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    SKP_REQUIRE(pos == text.size() && pos > 0,
                "non-numeric row " << what << ": " << text);
    return value;
  };
  std::string header;
  // A per-client companion document keys on (index, client); the main
  // sweep document keys on index alone (client fixed at 0).
  bool per_client = false;
  // (index, client) -> (row text, source document) — the source lets a
  // collision diagnostic name both inputs, the usual symptom of merging
  // the same shard file twice or mixing overlapping shard schemes.
  std::map<std::pair<std::size_t, std::size_t>,
           std::pair<std::string, std::size_t>>
      rows;
  for (std::size_t d = 0; d < shards.size(); ++d) {
    std::istringstream is(shards[d]);
    std::string line;
    SKP_REQUIRE(static_cast<bool>(std::getline(is, line)),
                "empty shard document: " << shard_name(d));
    if (header.empty()) {
      header = line;
      per_client = header.rfind("index,client,", 0) == 0;
    } else {
      SKP_REQUIRE(line == header, "shard header mismatch in "
                                      << shard_name(d) << ": " << line);
    }
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      // simctl marks a signal-interrupted sweep with a "# interrupted
      // at spec N" trailer. Such a document is a valid PARTIAL record
      // for a human, but merging it would silently produce an
      // incomplete sweep — reject it and make the operator re-run the
      // shard.
      SKP_REQUIRE(line[0] != '#',
                  "shard " << shard_name(d)
                           << " is an interrupted partial (" << line
                           << ") — re-run that shard before merging");
      const std::size_t comma = line.find(',');
      SKP_REQUIRE(comma != std::string::npos && comma > 0,
                  "malformed shard row: " << line);
      const std::size_t index =
          parse_field(line.substr(0, comma), "index");
      std::size_t client = 0;
      if (per_client) {
        const std::size_t comma2 = line.find(',', comma + 1);
        SKP_REQUIRE(comma2 != std::string::npos && comma2 > comma + 1,
                    "malformed per-client row: " << line);
        client = parse_field(
            line.substr(comma + 1, comma2 - comma - 1), "client");
      }
      const auto [it, inserted] =
          rows.emplace(std::pair(index, client), std::pair(line, d));
      SKP_REQUIRE(inserted, "duplicate spec index "
                                << index
                                << (per_client ? " client " +
                                                     std::to_string(client)
                                               : std::string())
                                << " (in " << shard_name(d)
                                << ", first seen in "
                                << shard_name(it->second.second)
                                << ") — overlapping shard inputs?");
    }
  }
  std::string out = header;
  out += '\n';
  std::size_t expect = 0;
  std::size_t expect_client = 0;
  for (const auto& [key, row] : rows) {
    if (!per_client) {
      SKP_REQUIRE(key.first == expect,
                  "missing row index " << expect << " (next present: "
                                       << key.first << ")");
      ++expect;
    } else if (key.first == expect && key.second == expect_client) {
      // Next client row of the current spec.
      ++expect_client;
    } else if (key.first == expect + 1 && key.second == 0 &&
               expect_client > 0) {
      // First client row of the next spec.
      expect = key.first;
      expect_client = 1;
    } else {
      SKP_REQUIRE(false, "per-client rows not dense: expected index "
                             << expect << " client " << expect_client
                             << " or index " << expect + 1
                             << " client 0, got index " << key.first
                             << " client " << key.second);
    }
    out += row.first;
    out += '\n';
  }
  return out;
}

}  // namespace skp
