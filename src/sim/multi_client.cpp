#include "sim/multi_client.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include <future>

#include "predict/predictor.hpp"
#include "sim/event_queue.hpp"
#include "sim/request_step.hpp"
#include "sim/session_store.hpp"
#include "util/thread_pool.hpp"

namespace skp {

namespace {

// Per-client simulation state. Caches and request streams are private;
// only the link is shared. Read-mostly inputs are VIEWS, not copies: the
// retrieval catalog spans either the fleet-wide override vector (one
// copy for the whole run) or the client's own chain catalog, and a
// scripted cycle program spans its override entry — so a 10k-client
// fleet no longer holds 10k copies of identical vectors.
struct Client {
  std::unique_ptr<MarkovSource> chain;   // null for scripted clients
  std::unique_ptr<Predictor> predictor;  // null for oracle clients
  PredictorKind kind = PredictorKind::Oracle;
  std::vector<TraceRecord> cycles_storage;  // walked clients' private script
  std::span<const TraceRecord> cycles;   // learned drive (view)
  std::span<const double> r;             // effective retrieval catalog (view)
  std::vector<double> P;                 // learned planning row
  std::optional<SlotClient> slots;       // cache, freq tracker, prefetch book
  Rng walk{0};
  std::size_t state = 0;
  std::size_t served = 0;
  std::size_t quota = 0;        // cycles this client must serve
  double churn_period = 0.0;    // 0 = never churns
  double churn_downtime = 0.0;
  double next_churn_at = 0.0;   // first departure boundary
  SimMetrics metrics;
  std::vector<double> completion;      // per-item transfer completion time
  // Per-client planning buffers (clients are stepped by one DES thread,
  // but each keeps its own scratch so cycles never allocate).
  PlanScratch scratch;
  PrefetchPlan plan;
  // Per-client memoization (oracle clients only: chains — and so
  // states/orders — are private, and learned predictors change the
  // planning row every observation, which no context key survives). The
  // plans tier exists only where the engine's plans_tier_applies().
  std::optional<PlanCache> plans;
  std::optional<PlanCache> selections;
  std::optional<CanonicalOrderTable> canon;
};

}  // namespace

MultiClientResult run_multi_client(const MultiClientConfig& cfg) {
  SKP_REQUIRE(cfg.n_clients >= 1, "need at least one client");
  SKP_REQUIRE(cfg.link_speedup > 0.0, "link_speedup must be positive");
  SKP_REQUIRE(cfg.cache_size >= 1, "cache_size must be >= 1");
  SKP_REQUIRE(cfg.overrides.empty() ||
                  cfg.overrides.size() == cfg.n_clients,
              "override vector must have one entry per client (or none)");
  SKP_REQUIRE(cfg.phase_align >= 0.0 && cfg.phase_align <= 1.0,
              "phase_align must be in [0, 1]");
  SKP_REQUIRE(cfg.churn_period >= 0.0, "churn_period must be >= 0");
  SKP_REQUIRE(cfg.churn_downtime >= 0.0, "churn_downtime must be >= 0");
  SKP_REQUIRE(cfg.deadline >= 0.0, "deadline must be >= 0");
  validate_link_schedule(cfg.link_schedule);
  validate_fault_spec(cfg.fault);

  const PrefetchEngine engine(cfg.engine);
  Rng build(cfg.seed);

  // Clients live in shard-per-core session storage (id = client index,
  // shard = id % N; sim/session_store.hpp). Shard setup runs in parallel
  // when every client is privately seeded (overrides in play) — each
  // client's streams then depend only on (seed, index), never on
  // construction order — and sequentially under the legacy shared-stream
  // scheme. Either way each client's state is bit-identical to what the
  // flat-vector construction this replaces produced.
  ShardedSessionStore<Client> store(
      recommended_shard_count(cfg.n_clients));
  for (std::size_t c = 0; c < cfg.n_clients; ++c) store.emplace(c);

  auto setup_client = [&](std::size_t c, Client& cl, Rng* shared_build) {
    const MultiClientConfig::ClientOverride* ov =
        cfg.overrides.empty() ? nullptr : &cfg.overrides[c];
    const PredictorKind kind =
        ov && ov->predictor ? *ov->predictor : cfg.predictor;
    const bool scripted = ov && !ov->cycles.empty();
    SKP_REQUIRE(!scripted || kind != PredictorKind::Oracle,
                "scripted cycles need a learned predictor (client "
                    << c << " has no oracle rows to plan with)");
    cl.kind = kind;
    cl.quota =
        ov && ov->requests ? *ov->requests : cfg.requests_per_client;
    cl.churn_period =
        ov && ov->churn_period ? *ov->churn_period : cfg.churn_period;
    cl.churn_downtime = ov && ov->churn_downtime ? *ov->churn_downtime
                                                 : cfg.churn_downtime;
    SKP_REQUIRE(cl.churn_period >= 0.0 && cl.churn_downtime >= 0.0,
                "client " << c << ": churn overrides must be >= 0");
    cl.next_churn_at = cl.churn_period;

    // Streams. With overrides in play EVERY client is privately seeded —
    // from its explicit seed (position-independent, so the same seeded
    // client reproduces its trajectory solo or in any fleet), else from
    // (cfg.seed, client index) — so reseeding or reshaping one client
    // never shifts another's trajectory. Without overrides, chains draw
    // from the shared sequential stream and walks from its split(1000+c)
    // children — the legacy scheme, kept bit-identical.
    std::optional<Rng> private_build;
    if (ov && ov->seed) {
      Rng root(*ov->seed);
      private_build.emplace(root.split(1));
      cl.walk = root.split(2);
    } else if (!cfg.overrides.empty()) {
      Rng root = Rng(cfg.seed).split(1000 + c);
      private_build.emplace(root.split(1));
      cl.walk = root.split(2);
    }
    if (!scripted) {
      const MarkovSourceConfig& scfg =
          ov && ov->source ? *ov->source : cfg.source;
      cl.chain = std::make_unique<MarkovSource>(
          scfg, private_build ? *private_build : *shared_build);
      cl.chain->teleport(0);
    }
    if (!private_build) cl.walk = shared_build->split(1000 + c);

    // Effective retrieval catalog, by reference: the fleet-wide override
    // vector (alive for the whole run) or the chain's own catalog (the
    // chain is client-owned and never redrawn here) — identical values
    // to the per-client copies this replaces, without the copies.
    if (!cfg.retrieval_times.empty()) {
      SKP_REQUIRE(!cl.chain ||
                      cl.chain->n_states() == cfg.retrieval_times.size(),
                  "retrieval_times override must match the chain catalog");
      cl.r = std::span<const double>(cfg.retrieval_times);
    } else {
      SKP_REQUIRE(cl.chain != nullptr,
                  "scripted clients need a retrieval_times catalog");
      cl.r = cl.chain->retrieval_times();
    }
    const std::size_t n = cl.r.size();
    cl.slots.emplace(n, cfg.cache_size);
    cl.slots->cache.key_order(cfg.engine.arbitration.sub, &cl.slots->freq,
                              cl.r);
    cl.completion.assign(n, 0.0);

    if (kind == PredictorKind::Oracle) {
      // Memoization needs the state key to determine the planning inputs;
      // phase alignment blends the viewing time by cycle INDEX, which
      // breaks that promise, so flash-crowd worlds plan unmemoized.
      if (cfg.use_plan_cache && cfg.phase_align == 0.0) {
        if (engine.plans_tier_applies()) {
          cl.plans.emplace(engine.config_digest(), cfg.plan_cache_capacity,
                           /*doorkeeper=*/true);
        }
        cl.selections.emplace(engine.config_digest(),
                              cfg.plan_cache_capacity);
        cl.canon.emplace(n);
      }
    } else {
      cl.predictor = make_runtime_predictor(kind, n);
      cl.P.assign(n, 0.0);
      if (scripted) {
        SKP_REQUIRE(ov->cycles.size() >= cl.quota,
                    "scripted cycles must cover the client's quota");
        for (const TraceRecord& rec : ov->cycles) {
          SKP_REQUIRE(rec.item >= 0 &&
                          static_cast<std::size_t>(rec.item) < n,
                      "scripted cycle item out of catalog range");
        }
        // View of the override's script — the config outlives the run.
        cl.cycles = std::span<const TraceRecord>(ov->cycles);
      } else {
        // Materialize the chain walk up front — the walk stream is
        // consumed exactly as lazy stepping would, and learned planning
        // needs the cycle script, not the chain rows.
        cl.cycles_storage.reserve(cl.quota);
        for (std::size_t i = 0; i < cl.quota; ++i) {
          const double v =
              cl.chain->viewing_time(cl.chain->current_state());
          const auto item = static_cast<ItemId>(cl.chain->step(cl.walk));
          cl.cycles_storage.push_back({item, v});
        }
        cl.cycles = cl.cycles_storage;
      }
    }
  };

  if (!cfg.overrides.empty() && store.n_shards() > 1) {
    // Private streams: shard setups are independent, one worker per
    // shard, no cross-shard state touched.
    ThreadPool pool(store.n_shards());
    std::vector<std::future<void>> pending;
    pending.reserve(store.n_shards());
    for (std::size_t s = 0; s < store.n_shards(); ++s) {
      pending.push_back(pool.submit([&, s] {
        store.shard(s).for_each([&](std::uint64_t id, Client& cl) {
          setup_client(static_cast<std::size_t>(id), cl, nullptr);
        });
      }));
    }
    for (auto& f : pending) f.get();  // rethrows setup validation errors
  } else {
    for (std::size_t c = 0; c < cfg.n_clients; ++c) {
      setup_client(c, *store.find(c), &build);
    }
  }

  // Flat index view for the event loop — shards are a storage shape;
  // the DES addresses clients by index. Map nodes are stable, so these
  // pointers (and spans into client-owned storage) never move.
  std::vector<Client*> clients(cfg.n_clients);
  for (std::size_t c = 0; c < cfg.n_clients; ++c) {
    clients[c] = store.find(c);
  }
  // Herd schedule for flash crowds: one shared per-cycle viewing-time
  // sequence, drawn from its own stream (salt 999 — distinct from every
  // client's split(1000+c)) so enabling alignment never perturbs a client
  // stream. Cycle k of every client blends toward herd[k].
  std::vector<double> herd;
  if (cfg.phase_align > 0.0) {
    std::size_t max_quota = 0;
    for (const Client* cl : clients) {
      max_quota = std::max(max_quota, cl->quota);
    }
    Rng herd_rng = Rng(cfg.seed).split(999);
    herd.reserve(max_quota);
    for (std::size_t i = 0; i < max_quota; ++i) {
      herd.push_back(herd_rng.uniform_time(cfg.source.v_lo, cfg.source.v_hi,
                                           cfg.source.integer_times));
    }
  }

  EventQueue clock;
  double link_free_at = 0.0;
  double link_busy = 0.0;
  double makespan = 0.0;
  std::uint64_t plans_fired = 0;
  std::uint64_t churn_events = 0;
  std::uint64_t deadline_hits = 0;

  // Robustness layer. Fault draws come from one link-level stream
  // (dedicated salt, consumed in link-commit order) so arming the fault
  // model never perturbs a client's workload or decision streams. The
  // overload controller is fleet-wide: the link is shared, so pressure
  // is a system property.
  Rng fault_rng = Rng(cfg.seed).split(kFaultStreamSalt);
  FaultStats fault_stats;
  OverloadController overload(cfg.overload);
  std::vector<double> degraded_row;  // oracle-row copy under degradation

  // Serializes a transfer on the shared link; returns completion time. With
  // a link schedule the phase at transfer START re-prices the base cost r
  // (the no-abort rule holds: a committed transfer keeps its duration).
  auto enqueue = [&](double r) {
    const double start = std::max(clock.now(), link_free_at);
    double cost = r;
    if (!cfg.link_schedule.empty()) {
      const LinkPhase& phase = link_phase_at(cfg.link_schedule, start);
      cost = phase.latency + r / phase.bandwidth;
    }
    const double duration = cost / cfg.link_speedup;
    link_free_at = start + duration;
    link_busy += duration;
    return link_free_at;
  };

  // Prefetch path through the fault model (the reliable `enqueue` when
  // faults are disarmed). Each attempt is re-priced at its own start so
  // link phases charge the rate in force when it runs; backoff gaps idle
  // the link (only attempt occupancy counts toward link_busy). nullopt =
  // retry budget exhausted, transfer abandoned.
  auto enqueue_prefetch = [&](double r) -> std::optional<double> {
    if (!cfg.fault.enabled()) return enqueue(r);
    const double queue_start = std::max(clock.now(), link_free_at);
    const FaultTransfer ft = run_faulty_transfer(
        cfg.fault, fault_rng, fault_stats, queue_start,
        [&](double attempt_start) {
          double cost = r;
          if (!cfg.link_schedule.empty()) {
            const LinkPhase& phase =
                link_phase_at(cfg.link_schedule, attempt_start);
            cost = phase.latency + r / phase.bandwidth;
          }
          return cost / cfg.link_speedup;
        });
    link_free_at = ft.finish;
    link_busy += ft.busy;
    if (!ft.delivered) return std::nullopt;
    return ft.finish;
  };

  // Flash-crowd blend: pulls cycle k's viewing time toward the shared
  // herd schedule; identity when alignment is off.
  auto blend = [&](double v, std::size_t k) {
    if (cfg.phase_align == 0.0) return v;
    return (1.0 - cfg.phase_align) * v + cfg.phase_align * herd[k];
  };

  // One viewing-and-request cycle for client c, starting at clock.now().
  // Defined as a std::function so completions can reschedule it.
  std::function<void(std::size_t)> start_cycle = [&](std::size_t c) {
    Client& cl = *clients[c];
    if (cl.served >= cl.quota) {
      makespan = std::max(makespan, clock.now());
      return;
    }
    const double t0 = clock.now();

    double v = 0.0;
    ItemId next = 0;
    if (cl.predictor) {
      // Learned drive: replay the scripted cycle, plan against the
      // predictor's row (zeros during the observe-only warmup prefix, so
      // the planner fetches nothing), no memoization.
      const TraceRecord& rec = cl.cycles[cl.served];
      v = blend(rec.viewing_time, cl.served);
      next = rec.item;
      if (cl.served >= cfg.predictor_warmup) {
        cl.predictor->predict_into(cl.P);
        for (double& p : cl.P) {
          if (p < cfg.predictor_min_prob) p = 0.0;
        }
        overload.degrade_row(cl.P);
      }
      const InstanceView inst(cl.P, cl.r, v);
      std::optional<ItemId> oracle;
      if (cfg.engine.policy == PrefetchPolicy::Perfect) oracle = next;
      engine.plan_with_cache(inst, cl.slots->cache, &cl.slots->freq,
                             PlanMemo{}, cl.scratch, cl.plan, oracle);
    } else {
      // Oracle drive: plan against the chain's ground-truth row, then
      // sample the next request.
      v = blend(cl.chain->viewing_time(cl.state), cl.served);
      std::span<const double> row = cl.chain->transition_row(cl.state);
      if (overload.rung() != DegradationRung::kNormal) {
        // Degrade a copy — the chain's rows are ground truth for every
        // later cycle and for demand-victim arbitration.
        degraded_row.assign(row.begin(), row.end());
        overload.degrade_row(degraded_row);
        row = degraded_row;
      }
      const InstanceView inst(row, cl.r, v);
      next = static_cast<ItemId>(cl.chain->step(cl.walk));
      std::optional<ItemId> oracle;
      if (cfg.engine.policy == PrefetchPolicy::Perfect) oracle = next;

      PlanMemo memo;
      if (cl.selections) {
        memo.plans = cl.plans ? &*cl.plans : nullptr;
        memo.selections = &*cl.selections;
        memo.canon = &*cl.canon;
        memo.state_key = cl.state;
      }
      engine.plan_with_cache(inst, cl.slots->cache, &cl.slots->freq, memo,
                             cl.scratch, cl.plan, oracle,
                             cl.chain->successors(cl.state));
    }
    const PrefetchPlan& plan = cl.plan;
    if (!plan.fetch.empty()) ++plans_fired;
    commit_plan(*cl.slots, plan, cl.r, cl.metrics, /*counted=*/true,
                [&](ItemId f) {
                  const std::optional<double> done =
                      enqueue_prefetch(cl.r[Instance::idx(f)]);
                  if (done) cl.completion[Instance::idx(f)] = *done;
                  return done.has_value();
                });
    cl.metrics.solver_nodes += plan.solver_nodes;

    const double t_req = t0 + v;
    clock.schedule_at(t_req, [&, c, next, v, t_req] {
      Client& me = *clients[c];
      const bool hit = me.slots->cache.contains(next);
      serve_request(*me.slots, next, me.r, cfg.engine.arbitration,
                    me.metrics, /*counted=*/true, [&] {
                      // The row in force this cycle arbitrates a learned
                      // client's demand victim — the chainless analogue
                      // of the oracle path's next-state row.
                      if (me.predictor) return InstanceView(me.P, me.r, v);
                      const auto s = static_cast<std::size_t>(next);
                      return InstanceView(me.chain->transition_row(s),
                                          me.r, me.chain->viewing_time(s));
                    });
      double T = 0.0;
      if (hit) {
        T = std::max(0.0, me.completion[Instance::idx(next)] - t_req);
      } else {
        // Demand fetch queues behind every committed transfer — the
        // paper's no-abort assumption, now spanning all clients.
        const double finish = enqueue(me.r[Instance::idx(next)]);
        me.completion[Instance::idx(next)] = finish;
        T = finish - t_req;
      }
      if (me.predictor) me.predictor->observe(next);
      me.metrics.access_time.add(T);
      ++me.metrics.requests;
      if (T == 0.0) ++me.metrics.hits;
      if (cfg.deadline > 0.0 && T <= cfg.deadline) ++deadline_hits;
      if (overload.observe(T)) {
        // Rung change: memoized plans were computed against the previous
        // rung's degraded rows, so the state-key promise just broke for
        // every client at once.
        const bool frozen =
            overload.rung() >= DegradationRung::kStrictAdmission;
        for (Client* other_p : clients) {
          Client& other = *other_p;
          if (other.plans) {
            other.plans->bump_generation();
            other.plans->set_admission_frozen(frozen);
          }
          if (other.selections) {
            other.selections->bump_generation();
            other.selections->set_admission_frozen(frozen);
            other.canon->invalidate_all();
          }
        }
      }
      ++me.served;
      me.state = static_cast<std::size_t>(next);
      const double t_end = t_req + T;
      if (me.churn_period > 0.0 && t_end >= me.next_churn_at &&
          me.served < me.quota) {
        // Departure at the cycle boundary: the client walks away from its
        // cache (prefetched-but-unviewed residents count as wasted; any
        // in-flight transfer still completes — no-abort), forgets its
        // frequency book, cold-restarts its predictor, and retires its
        // plan memo. Chain state and private streams survive, so a
        // churning client never shifts a sibling's request trajectory.
        for (const ItemId item : me.slots->cache.contents()) {
          if (me.slots->book.evicted(item)) ++me.metrics.wasted_prefetches;
        }
        me.slots->cache.clear();
        me.slots->freq.reset();
        if (me.predictor) {
          me.predictor = make_runtime_predictor(me.kind, me.r.size());
        }
        if (me.plans) me.plans->bump_generation();
        if (me.selections) me.selections->bump_generation();
        ++churn_events;
        const double rejoin = t_end + me.churn_downtime;
        me.next_churn_at = rejoin + me.churn_period;
        clock.schedule_at(rejoin, [&, c] { start_cycle(c); });
      } else {
        // Next cycle begins when this request is served.
        clock.schedule_at(t_end, [&, c] { start_cycle(c); });
      }
    });
  };

  for (std::size_t c = 0; c < cfg.n_clients; ++c) start_cycle(c);
  clock.run_all();
  makespan = std::max(makespan, clock.now());

  MultiClientResult result;
  result.makespan = makespan;
  result.link_busy_time = link_busy;
  result.plans = plans_fired;
  result.churn_events = churn_events;
  result.fault = fault_stats;
  result.overload = overload.stats();
  result.deadline_hits = deadline_hits;
  for (const Client* cl : clients) {
    result.per_client.push_back(cl->metrics);
    result.aggregate.merge(cl->metrics);
    // Counter sums, never overwrites: the merged hit-rate must be
    // recomputable from summed hits/misses (a mean of per-client rates is
    // wrong under skewed client loads).
    if (cl->plans) result.plan_cache.plans.merge(cl->plans->stats());
    if (cl->selections) {
      result.plan_cache.selections.merge(cl->selections->stats());
    }
  }
  return result;
}

}  // namespace skp
