// fig7_sweep: the paper's Figure-7 grid through run_sim_batch, one thread.
//
// Grid per pass: an oracle Markov source of 100 items (Fig. 7 caption
// shape) x {none, KP, SKP} prefetch x {none, LFU, DS} sub-arbitration x
// cache sizes {1, 10, ..., 100}, kRequests requests per point. Each
// policy row (11 cache sizes sharing one workload) is one run_sim_batch
// call — one "step" of this workload. Every pass derives a fresh workload
// seed from the run seed, so a run averages over many chains.
//
// The traced run replays the same rows through a benchmark-side mirror
// of the lockstep loop built from public calls (MarkovSource::view_at /
// successors / step, PrefetchEngine::plan_with_cache_batch,
// realized_access_time_cached, SlotCache::insert / replace,
// FreqTracker::record, choose_victim) with a span around each layer.
#include <deque>
#include <optional>
#include <span>

#include "cache/cache.hpp"
#include "cache/freq_tracker.hpp"
#include "core/access_model.hpp"
#include "core/arbitration.hpp"
#include "core/plan_cache.hpp"
#include "core/prefetch_engine.hpp"
#include "sim/grounded.hpp"
#include "sim/prefetch_cache.hpp"
#include "workloads.hpp"
#include "workload/markov_source.hpp"

namespace pb {
namespace {

using namespace skp;

constexpr std::size_t kRequests = 5'000;
constexpr std::size_t kLanesPerRow = 11;  // cache sizes 1, 10, ..., 100
constexpr std::size_t kSetupReps = 5;

struct PolicyRow {
  PrefetchPolicy policy;
  SubArbitration sub;
};

constexpr PolicyRow kRows[] = {
    {PrefetchPolicy::None, SubArbitration::None},
    {PrefetchPolicy::None, SubArbitration::LFU},
    {PrefetchPolicy::None, SubArbitration::DS},
    {PrefetchPolicy::KP, SubArbitration::None},
    {PrefetchPolicy::KP, SubArbitration::LFU},
    {PrefetchPolicy::KP, SubArbitration::DS},
    {PrefetchPolicy::SKP, SubArbitration::None},
    {PrefetchPolicy::SKP, SubArbitration::LFU},
    {PrefetchPolicy::SKP, SubArbitration::DS},
};
constexpr std::size_t kRowCount = std::size(kRows);

std::vector<SimSpec> row_specs(std::uint64_t workload_seed,
                               const PolicyRow& row) {
  std::vector<SimSpec> specs;
  for (std::size_t i = 0; i < kLanesPerRow; ++i) {
    SimSpec spec;  // prefetch_cache driver, Fig.-7 Markov source
    spec.cache_size = i == 0 ? 1 : 10 * i;
    spec.policy = row.policy;
    spec.sub = row.sub;
    spec.requests = kRequests;
    spec.seed = workload_seed;
    specs.push_back(spec);
  }
  return specs;
}

std::uint64_t pass_seed(std::uint64_t seed, std::size_t pass) {
  return mix_seed(seed, pass) >> 1;
}

// One lane of the mirrored lockstep loop (the state run_sim_batch keeps
// per sweep point).
struct Lane {
  Lane(const SimSpec& s, std::size_t n)
      : spec(s), engine(engine_config(s)), cache(n, s.cache_size), freq(n),
        unused_prefetch(n, 0) {
    if (s.sub == SubArbitration::None) {
      plans.emplace(engine.config_digest(), s.plan_cache_capacity,
                    /*doorkeeper=*/true);
    }
    selections.emplace(engine.config_digest(), s.plan_cache_capacity);
  }

  static EngineConfig engine_config(const SimSpec& s) {
    EngineConfig e;
    e.policy = s.policy;
    e.delta_rule = s.delta_rule;
    e.arbitration.sub = s.sub;
    e.min_profit_threshold = s.min_profit_threshold;
    e.evaluate_plan_g = false;
    return e;
  }

  SimSpec spec;
  PrefetchEngine engine;
  SlotCache cache;
  FreqTracker freq;
  std::vector<char> unused_prefetch;
  PlanScratch scratch;
  PrefetchPlan plan;
  std::optional<PlanCache> plans;
  std::optional<PlanCache> selections;
  SimResult result;
  double T = 0.0;
  bool miss = false;
  ItemId victim = 0;
};

struct SpanIds {
  explicit SpanIds(Tracer& t)
      : request(t.name_id("request")),
        source(t.name_id("workload.source")),
        plan(t.name_id("core.plan")),
        access(t.name_id("core.access")),
        mutate(t.name_id("cache.mutate")),
        victim(t.name_id("core.victim")) {}
  std::uint32_t request, source, plan, access, mutate, victim;
};

// The lockstep loop of one policy row, rebuilt from public calls.
class MirrorRow {
 public:
  // `open_us`, when given, receives each lane's construction time.
  MirrorRow(const std::vector<SimSpec>& specs, std::vector<double>* open_us)
      : build_(specs.front().seed),
        source_(to_markov_config(specs.front().workload), build_),
        walk_(build_.split(kPrefetchCacheWalkSalt)),
        canon_(source_.n_states()) {
    // Built exactly as the batch runner builds its shared workload.
    source_.teleport(0);
    const std::size_t n = source_.n_states();
    for (const SimSpec& s : specs) {
      const std::int64_t t0 = now_ns();
      lanes_.emplace_back(s, n);
      if (open_us) open_us->push_back(static_cast<double>(now_ns() - t0) / 1e3);
    }
    for (Lane& lane : lanes_) {
      PrefetchEngine::PlanBatchLane row;
      row.cache = &lane.cache;
      row.freq = &lane.freq;
      row.memo.plans = lane.plans ? &*lane.plans : nullptr;
      row.memo.selections = lane.selections ? &*lane.selections : nullptr;
      row.memo.canon = &canon_;
      row.scratch = &lane.scratch;
      row.out = &lane.plan;
      Group* group = nullptr;
      for (Group& g : groups_) {
        if (g.engine->config_digest() == lane.engine.config_digest()) {
          group = &g;
        }
      }
      if (group == nullptr) {
        groups_.push_back({&lane.engine, {}});
        group = &groups_.back();
      }
      group->rows.push_back(row);
    }
  }

  std::size_t lanes() const noexcept { return lanes_.size(); }
  std::uint64_t plan_fetches() const noexcept { return fetches_; }
  std::uint64_t plan_evictions() const noexcept { return evictions_; }

  std::vector<SimResult> run(Tracer* tr, const SpanIds* ids,
                             std::uint64_t& request_id) {
    std::size_t state = source_.current_state();
    const std::size_t requests = lanes_.front().spec.requests;
    for (std::size_t req = 0; req < requests; ++req) {
      const std::uint64_t rid = request_id++;
      Scope root(tr, ids ? ids->request : 0, rid);
      InstanceView inst;
      std::span<const ItemId> hint;
      ItemId next = 0;
      {
        Scope s(tr, ids ? ids->source : 0, rid);
        inst = source_.view_at(state);
        hint = source_.successors(state);
        next = static_cast<ItemId>(source_.step(walk_));
      }
      {
        Scope s(tr, ids ? ids->plan : 0, rid);
        for (Group& g : groups_) {
          for (auto& row : g.rows) row.memo.state_key = state;
          g.engine->plan_with_cache_batch(inst, g.rows, std::nullopt, hint);
        }
      }
      {
        Scope s(tr, ids ? ids->access : 0, rid);
        for (Lane& lane : lanes_) {
          lane.T = realized_access_time_cached(inst, lane.plan.fetch,
                                               lane.plan.evict,
                                               lane.cache.presence(), next);
        }
      }
      {
        Scope s(tr, ids ? ids->mutate : 0, rid);
        for (Lane& lane : lanes_) execute_prefetch(lane, inst, state, next);
      }
      const InstanceView next_inst =
          source_.view_at(static_cast<std::size_t>(next));
      {
        Scope s(tr, ids ? ids->victim : 0, rid);
        for (Lane& lane : lanes_) {
          if (lane.miss && lane.cache.full()) {
            lane.victim = choose_victim(next_inst, lane.cache.contents(),
                                        &lane.freq,
                                        lane.engine.config().arbitration);
          }
        }
      }
      {
        Scope s(tr, ids ? ids->mutate : 0, rid);
        for (Lane& lane : lanes_) fill_demand(lane, next);
      }
      state = static_cast<std::size_t>(next);
    }
    std::vector<SimResult> out;
    for (Lane& lane : lanes_) {
      if (lane.plans) lane.result.plan_cache.plans = lane.plans->stats();
      if (lane.selections) {
        lane.result.plan_cache.selections = lane.selections->stats();
      }
      out.push_back(lane.result);
    }
    return out;
  }

 private:
  struct Group {
    const PrefetchEngine* engine;
    std::vector<PrefetchEngine::PlanBatchLane> rows;
  };

  void execute_prefetch(Lane& lane, InstanceView inst, std::size_t state,
                        ItemId next) {
    SimMetrics& m = lane.result.metrics;
    const PrefetchPlan& plan = lane.plan;
    fetches_ += plan.fetch.size();
    evictions_ += plan.evict.size();
    std::size_t victim_idx = 0;
    for (const ItemId f : plan.fetch) {
      if (lane.cache.full()) {
        const ItemId d = plan.evict[victim_idx++];
        if (lane.unused_prefetch[InstanceView::idx(d)]) {
          ++m.wasted_prefetches;
          lane.unused_prefetch[InstanceView::idx(d)] = 0;
        }
        lane.cache.replace(d, f);
      } else {
        lane.cache.insert(f);
      }
      lane.unused_prefetch[InstanceView::idx(f)] = 1;
      ++m.prefetch_fetches;
      m.network_time += inst.r[InstanceView::idx(f)];
      m.prefetch_network_time += inst.r[InstanceView::idx(f)];
    }
    m.solver_nodes += plan.solver_nodes;
    m.access_time.add(lane.T);
    ++m.requests;
    if (lane.T == 0.0) ++m.hits;
    if (lane.T > source_.viewing_time(state)) ++lane.result.over_viewing_time;
    lane.freq.record(next);
    lane.unused_prefetch[InstanceView::idx(next)] = 0;
    lane.miss = !lane.cache.contains(next);
    if (lane.miss) {
      ++m.demand_fetches;
      m.network_time += source_.retrieval_time(next);
      m.demand_network_time += source_.retrieval_time(next);
    }
  }

  void fill_demand(Lane& lane, ItemId next) {
    if (!lane.miss) return;
    if (lane.cache.full()) {
      const ItemId d = lane.victim;
      if (lane.unused_prefetch[InstanceView::idx(d)]) {
        ++lane.result.metrics.wasted_prefetches;
        lane.unused_prefetch[InstanceView::idx(d)] = 0;
      }
      lane.cache.replace(d, next);
    } else {
      lane.cache.insert(next);
    }
  }

  Rng build_;
  MarkovSource source_;
  Rng walk_;
  CanonicalOrderTable canon_;
  std::deque<Lane> lanes_;
  std::vector<Group> groups_;
  std::uint64_t fetches_ = 0;
  std::uint64_t evictions_ = 0;
};

void merge_into(SimResult& total, const SimResult& r) {
  total.metrics.merge(r.metrics);
  total.plan_cache.merge(r.plan_cache);
  total.over_viewing_time += r.over_viewing_time;
}

struct RowRun {
  std::uint64_t workload_seed;
  std::size_t row;
  std::vector<std::string> texts;
};

}  // namespace

Report run_fig7_sweep(const RunArgs& args) {
  Report rep;

  // Set-up: ground a pass's workloads and construct every lane's state
  // (source, canonical-order table, engines, caches, memo tiers) — the
  // work run_sim_batch does before its request loop. Timed a few times
  // up front and then once per pass, so the samples span the whole run
  // rather than one moment of the host's speed.
  std::vector<double> setup_s, open_us;
  const auto time_setup = [&](std::uint64_t workload_seed) {
    const std::int64_t t0 = now_ns();
    std::vector<std::unique_ptr<MirrorRow>> rows;
    for (std::size_t r = 0; r < kRowCount; ++r) {
      rows.push_back(std::make_unique<MirrorRow>(
          row_specs(workload_seed, kRows[r]), &open_us));
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  };
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    time_setup(pass_seed(args.seed, k));
  }

  // Untraced measurement: run_sim_batch per policy row until the budget
  // is spent (the traced run spends 40% of it here, the rest tracing).
  const double budget = args.trace ? args.seconds * 0.4 : args.seconds;
  std::vector<double> step_us, bytes;
  std::vector<double> row_us[kRowCount];  // call times per policy row
  std::vector<RowRun> runs;
  std::vector<std::pair<SimSpec, std::string>> samples;
  SimResult total;
  std::uint64_t requests = 0;
  double busy_s = 0.0;
  const std::int64_t start = now_ns();
  for (std::size_t pass = 0;
       static_cast<double>(now_ns() - start) / 1e9 < budget; ++pass) {
    const std::uint64_t wseed = pass_seed(args.seed, pass);
    time_setup(wseed);
    for (std::size_t r = 0; r < kRowCount; ++r) {
      const std::vector<SimSpec> specs = row_specs(wseed, kRows[r]);
      const std::uint64_t live0 = live_bytes();
      reset_peak();
      const std::int64_t t0 = now_ns();
      const std::vector<SimResult> res = run_sim_batch(specs);
      const std::int64_t t1 = now_ns();
      bytes.push_back(static_cast<double>(peak_bytes() - live0) /
                      static_cast<double>(specs.size()));
      step_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      row_us[r].push_back(step_us.back());
      busy_s += static_cast<double>(t1 - t0) / 1e9;
      requests += specs.size() * kRequests;
      RowRun run{wseed, r, {}};
      for (const SimResult& x : res) {
        merge_into(total, x);
        run.texts.push_back(result_text(x));
      }
      // A seeded sample of points is re-run solo through run_sim.
      const std::uint64_t pick = mix_seed(args.seed, pass * 64 + r);
      if (pick % 3 == 0) {
        const std::size_t lane = (pick >> 8) % specs.size();
        samples.emplace_back(specs[lane], run.texts[lane]);
      }
      if (args.trace) runs.push_back(std::move(run));
      if (static_cast<double>(now_ns() - start) / 1e9 >= budget) break;
    }
  }
  // Throughput from each policy row's median call time, so a burst of
  // host noise during a few calls does not move it; the plain ratio
  // (requests over busy seconds) is the base of the tracing overhead.
  double row_requests = 0.0, row_seconds = 0.0;
  for (const std::vector<double>& t : row_us) {
    if (t.empty()) continue;
    row_requests += static_cast<double>(kLanesPerRow * kRequests);
    row_seconds += median(t) / 1e6;
  }
  rep.values["requests_per_s"] = row_requests / row_seconds;
  rep.values["setup_s"] = median(setup_s);
  rep.quantile("session_open_p50_us", open_us, 50.0);
  rep.quantile("session_open_p99_us", open_us, 99.0);
  const double rps = static_cast<double>(requests) / busy_s;
  rep.quantile("step_p50_us", step_us, 50.0);
  rep.quantile("step_p99_us", step_us, 99.0);
  // Bytes are exact counts, not timings: the mean over calls weighs every
  // policy row alike (a median would flip between rows' values).
  double bytes_sum = 0.0;
  for (const double b : bytes) bytes_sum += b;
  rep.values["bytes_per_session"] =
      bytes_sum / static_cast<double>(std::max<std::size_t>(bytes.size(), 1));
  rep.notes.push_back("step = one run_sim_batch call (" +
                      std::to_string(kLanesPerRow) + " lanes x " +
                      std::to_string(kRequests) + " requests); " +
                      std::to_string(requests) + " simulated requests");

  for (const auto& [spec, text] : samples) {
    rep.check(result_text(run_sim(spec)) == text,
              "fig7_sweep: solo run_sim differs from the batched result "
              "(seed " + std::to_string(spec.seed) + ", cache " +
                  std::to_string(spec.cache_size) + ")");
  }

  if (args.trace) {
    Tracer tracer;
    const SpanIds ids(tracer);
    std::uint64_t request_id = 0, fetches = 0, evictions = 0;
    std::uint64_t traced_requests = 0;
    const std::int64_t t0 = now_ns();
    for (const RowRun& run : runs) {
      MirrorRow row(row_specs(run.workload_seed, kRows[run.row]), nullptr);
      const std::vector<SimResult> res = row.run(&tracer, &ids, request_id);
      fetches += row.plan_fetches();
      evictions += row.plan_evictions();
      traced_requests += row.lanes() * kRequests;
      bool same = res.size() == run.texts.size();
      for (std::size_t i = 0; same && i < res.size(); ++i) {
        same = result_text(res[i]) == run.texts[i];
      }
      rep.check(same, "fig7_sweep: traced loop counters differ from "
                      "run_sim_batch (seed " +
                          std::to_string(run.workload_seed) + ")");
    }
    const double traced_s = static_cast<double>(now_ns() - t0) / 1e9;
    const double lane_reqs = static_cast<double>(traced_requests);
    const auto self_ns = [&](const char* name) {
      return static_cast<double>(tracer.self_ns(name));
    };
    rep.values["core.plan_ns_per_req"] = self_ns("core.plan") / lane_reqs;
    rep.values["cache.mutate_ns_per_req"] = self_ns("cache.mutate") / lane_reqs;
    rep.values["workload.source_ns_per_req"] =
        self_ns("workload.source") / lane_reqs;
    rep.values["core.fetches_per_plan"] =
        static_cast<double>(fetches) / lane_reqs;
    rep.values["core.evictions_per_plan"] =
        static_cast<double>(evictions) / lane_reqs;
    counter_layers(total, rep);
    rep.values["trace.requests_per_s_ratio"] = (lane_reqs / traced_s) / rps;
    rep.notes.push_back("tracing overhead: traced " +
                        format_number(lane_reqs / traced_s) +
                        " requests/s vs untraced " + format_number(rps));
    report_trace(tracer, args, rep);
  }
  rep.values["peak_rss_mb"] = self_peak_rss_mb();
  return rep;
}

}  // namespace pb
