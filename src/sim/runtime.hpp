// Unified simulation runtime: SimSpec descriptors + driver registry.
//
// The paper's evaluation is a matrix of simulators (prefetch-only,
// prefetch+cache, trace replay, network DES) crossed with predictors,
// replacement policies and workloads. Before this layer existed every
// bench, test and the scenario harness wired each driver by hand; now a
// single value type — SimSpec — names any cell of that matrix, a driver
// registry dispatches it to the existing engines, and every run reports
// through one SimResult. The figure benches are thin SimSpec
// enumerations over sim/sweep.hpp, the scenario-matrix harness is a
// SimSpec mapping, and the `simctl` CLI (tools/simctl.cpp) turns flags
// into spec sweeps that shard across processes/machines with
// byte-identical merged CSV output.
//
// Workloads are first-class spec fields too: the paper's Markov chain
// and i.i.d. draws, plus the Zipf catalog (workload/zipf_source.hpp),
// phase-shifting Markov drift (MarkovSource::redraw_transitions) and a
// text-round-tripped trace. Determinism contract: a SimSpec fully
// determines its SimResult (every random stream derives from spec.seed),
// so any sharding/threading of a spec sweep is result-equivalent to a
// serial loop.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/overload.hpp"
#include "core/prefetch_engine.hpp"
#include "predict/predictor.hpp"
#include "sim/fault.hpp"
#include "sim/link_schedule.hpp"
#include "sim/metrics.hpp"
#include "sim/prefetch_cache.hpp"  // PredictorKind + PrefetchCacheConfig
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "workload/prob_gen.hpp"
#include "workload/trace.hpp"

namespace skp {

// ---- Spec vocabulary ----------------------------------------------------

enum class SimDriverKind {
  PrefetchOnly,   // Section 4.4 flush-per-request Monte Carlo (Figs. 4/5)
  PrefetchCache,  // Section 5.3 Markov prefetch+cache Monte Carlo (Fig. 7)
  TraceReplay,    // recorded trace through the learned-predictor pipeline
  NetsimDes,      // discrete-event ClientSession over a serial link
  Scenario,       // deployment pipeline: predictor + replacement policy +
                  // net-grounded retrieval times (the scenario matrix)
  MultiClientDes, // K clients contending for ONE shared link (multi-user
                  // DES; see SimSpec::multi_client)
  SkpdLoopback,   // netsim_des served by the skpd daemon over a loopback
                  // socket (tools/skpd.cpp); decision path bit-identical
                  // to NetsimDes. Needs SKPD_BIN or SKPD_ADDR in the
                  // environment — see sim/skpd_loopback.hpp.
};

enum class SimWorkloadKind {
  Markov,       // the paper's sparse Markov chain
  Iid,          // i.i.d. draws from one skewy/flat row
  Zipf,         // i.i.d. Zipf catalog (rank-1 chain)
  MarkovDrift,  // Markov chain with phase-shift changepoints
  TraceText,    // Markov walk round-tripped through the skptrace format
  Adversarial,  // two-clique cache-thrashing chain
                // (workload/adversarial_source.hpp)
};

// Demand-miss eviction policy for the Scenario driver (prefetch victims
// come from the ReplacementPolicy too unless `pr_planning` engages the
// Figure-6 Pr-arbitration path).
enum class ReplacementKind { LRU, FIFO, LFU, Random };

struct SimWorkload {
  SimWorkloadKind kind = SimWorkloadKind::Markov;
  std::size_t n_items = 100;
  // Chain shape (Markov / MarkovDrift / TraceText); defaults are the
  // Fig. 7 caption.
  std::size_t out_degree_lo = 10, out_degree_hi = 20;
  double v_lo = 1.0, v_hi = 100.0;
  double r_lo = 1.0, r_hi = 30.0;
  bool integer_times = true;
  // Iid parameters. `iid_viewing_time` is the constant v of each cycle
  // in the cycle-driven drivers (prefetch_only draws v per iteration
  // from v_lo..v_hi instead, per the paper's protocol).
  ProbMethod method = ProbMethod::Skewy;
  double skew_exponent = 8.0;
  double iid_viewing_time = 30.0;
  // Zipf parameters (workload/zipf_source.hpp).
  double zipf_exponent = 1.1;
  bool zipf_shuffle = true;
  // MarkovDrift: requests between transition-structure changepoints.
  std::size_t drift_period = 2'000;
  // Adversarial parameters (workload/adversarial_source.hpp): two hot
  // cliques of adv_hot_set items alternate with per-step escape
  // probability adv_escape; size the clique just past the cache to
  // thrash it.
  std::size_t adv_hot_set = 8;
  double adv_escape = 0.02;

  bool operator==(const SimWorkload&) const = default;
};

// Per-client override for the multi_client driver. Every field defaults
// to "inherit from the base spec"; a client can reshape its workload,
// swap its predictor, or reseed its private request stream. Each
// client's streams are derived from (effective seed, client index), so
// homogeneous clients walk distinct trajectories and overriding one
// client never shifts another's.
struct MultiClientOverride {
  std::optional<SimWorkload> workload;
  std::optional<PredictorKind> predictor;
  std::optional<std::uint64_t> seed;
  // Per-client cycle quota (splits a total request budget without
  // dropping a remainder) and churn schedule overrides.
  std::optional<std::size_t> requests;
  std::optional<double> churn_period;
  std::optional<double> churn_downtime;

  bool operator==(const MultiClientOverride&) const = default;
};

// The multi-user DES section (consulted by the multi_client driver
// only; every other driver rejects a non-default section). Clients share
// ONE serial link — r_i / link_speedup per transfer — and the grounded
// retrieval catalog (r_i = latency + size_i / bandwidth, same stream
// layout as netsim_des/scenario), but own their caches, engines,
// predictors and request streams. `requests` in the base spec counts
// per client, so the aggregate serves clients x requests cycles.
struct MultiClientSpec {
  std::size_t clients = 4;
  double link_speedup = 1.0;
  // Hostile worlds (sim/multi_client.hpp has the full semantics):
  // flash-crowd phase alignment in [0, 1] (0 = independent phases, 1 =
  // every client's cycle k takes the same herd-drawn time, so demand
  // spikes hit the shared link together), and a churn schedule (every
  // `churn_period` time units a client departs — cache/frequency flush,
  // cold predictor, plan-memo invalidation — and rejoins
  // `churn_downtime` later with its streams intact).
  double phase_align = 0.0;
  double churn_period = 0.0;
  double churn_downtime = 0.0;
  // Empty = homogeneous clients derived from the base spec; otherwise
  // exactly `clients` entries.
  std::vector<MultiClientOverride> overrides;

  bool operator==(const MultiClientSpec&) const = default;
};

struct SimSpec {
  SimDriverKind driver = SimDriverKind::PrefetchCache;
  SimWorkload workload;

  // Planning.
  PrefetchPolicy policy = PrefetchPolicy::SKP;
  SubArbitration sub = SubArbitration::None;
  DeltaRule delta_rule = DeltaRule::ExactComplement;
  double min_profit_threshold = 0.0;

  // Prediction. Oracle uses the workload's ground-truth rows (invalid
  // for TraceReplay/Scenario, which are learned-predictor pipelines).
  PredictorKind predictor = PredictorKind::Oracle;
  double predictor_min_prob = 0.01;
  // Observe-only prefix before planning starts (Scenario/NetsimDes).
  std::size_t predictor_warmup = 0;

  // Cache sizing. `sized_capacity` > 0 switches the PrefetchCache driver
  // to the byte-addressed SizedCache (capacity in size units; item sizes
  // are size_per_r * r_i when size_per_r > 0, else U[size_lo, size_hi]).
  std::size_t cache_size = 10;
  double sized_capacity = 0.0;
  double size_per_r = 1.0;
  double size_lo = 1.0, size_hi = 30.0;
  // Scenario driver: demand-miss eviction policy, and whether prefetch
  // victims come from Figure-6 Pr-arbitration instead of the policy.
  ReplacementKind replacement = ReplacementKind::LRU;
  bool pr_planning = false;

  // Network grounding (NetsimDes + Scenario): r_i = latency + size_i /
  // bandwidth over a catalog of sizes drawn U{1..30} from the seed.
  double bandwidth = 1.0;
  double latency = 0.0;
  // Time-varying link (NetsimDes + MultiClientDes): non-empty cycles
  // these phases over the link; the phase at a transfer's start prices
  // it, while planning keeps the base static estimate
  // (sim/link_schedule.hpp). Drivers without a link reject it.
  std::vector<LinkPhase> link_schedule;

  // Robustness layer (NetsimDes + MultiClientDes; every other driver
  // rejects non-default sections — they have no transfer path to fail or
  // degrade). Fault draws come from a dedicated stream,
  // Rng(seed).split(kFaultStreamSalt), so fail_rate=0 runs are
  // bit-identical to a build without the layer. The overload controller
  // watches realized access times and steps planning effort down the
  // degradation rungs (core/overload.hpp) before any request would be
  // shed. `deadline` > 0 additionally counts requests served with
  // T <= deadline (SimResult::deadline_hits).
  FaultSpec fault;
  OverloadConfig overload;
  double deadline = 0.0;

  // Run shape.
  std::size_t requests = 5'000;
  std::size_t warmup = 0;  // leading requests excluded from metrics
  std::uint64_t seed = 1;
  bool use_plan_cache = true;
  std::size_t plan_cache_capacity = PlanCache::kDefaultCapacity;

  // Multi-user DES section (multi_client driver only).
  MultiClientSpec multi_client;

  // Structural equality — the skpd handshake round-trips a spec over the
  // wire and the resume path asserts the reattached session was created
  // from the very spec the client is still driving.
  bool operator==(const SimSpec&) const = default;
};

// ---- Unified result -----------------------------------------------------

struct SimResult {
  SimMetrics metrics;        // merged counters, every driver
  PlanMemoStats plan_cache;  // memoization tiers (zero when unused)
  // PrefetchCache driver: requests whose T exceeded the viewing time.
  std::uint64_t over_viewing_time = 0;
  // Scenario/NetsimDes: planning rounds that fetched anything.
  std::uint64_t plans = 0;
  // MultiClientDes: client departures under a churn schedule.
  std::uint64_t churn_events = 0;
  // Scenario driver: stretch-knapsack bandwidth-budget violations.
  std::uint64_t budget_violations = 0;
  double worst_budget_overrun = 0.0;
  // NetsimDes/MultiClientDes: fraction of elapsed time the link
  // transferred.
  double link_utilization = 0.0;
  // NetsimDes/MultiClientDes: transfer-fault counters (sim/fault.hpp;
  // zero when the fault section is disabled). Exact invariant:
  // fault.failed_transfers == fault.retries + fault.abandoned.
  FaultStats fault;
  // NetsimDes/MultiClientDes: overload-controller counters
  // (core/overload.hpp; zero when the controller is disabled).
  OverloadStats overload;
  // Requests served with T <= spec.deadline (0 when no deadline is set).
  std::uint64_t deadline_hits = 0;
  // PrefetchOnly driver: the Fig.-5 average-T-by-v curve.
  std::optional<BinnedMeans> avg_T_by_v;
  // MultiClientDes driver: one row per client (metrics above are the
  // merge); empty for the single-client drivers.
  std::vector<SimMetrics> per_client;

  // Requests served without a demand fetch (cache-resident or covered by
  // a prefetch). In the Monte-Carlo drivers this bounds metrics.hits
  // from above (equal whenever every covering prefetch completed inside
  // the viewing time); the DES counts metrics.hits only at T == 0, so a
  // resident item whose transfer is still in flight lands here and not
  // there. This is the one place that semantic lives — the scenario
  // matrix's NetsimDes golden rows pin this rate.
  std::uint64_t resident_hits() const noexcept {
    return metrics.requests - metrics.demand_fetches;
  }
  double resident_hit_rate() const noexcept {
    return metrics.requests ? static_cast<double>(resident_hits()) /
                                  static_cast<double>(metrics.requests)
                            : 0.0;
  }
};

// ---- Driver registry ----------------------------------------------------

struct SimDriver {
  SimDriverKind kind;
  const char* name;  // stable CLI/CSV token, e.g. "prefetch_cache"
  SimResult (*run)(const SimSpec&);
};

// All registered drivers, in a fixed order.
std::span<const SimDriver> driver_registry();
const SimDriver& find_driver(SimDriverKind kind);
const SimDriver* find_driver(std::string_view name);

// Dispatches `spec` to its driver. Throws std::invalid_argument when the
// spec names a combination the driver does not support (e.g. an oracle
// trace replay).
SimResult run_sim(const SimSpec& spec);

// Batched dispatch: runs every spec, routing consecutive runs that share
// one workload (prefetch_cache driver, slot cache, Markov/MarkovDrift,
// oracle or learned predictor, same source shape/seed/requests/drift)
// through the lockstep run_prefetch_cache_batch runner — the source is
// stepped once per request for the whole group. Each result is
// bit-identical to run_sim on that spec alone (the determinism contract
// is untouched; batching only moves setup work), and specs the lockstep
// runner cannot take simply run through run_sim. A prefetch_cache spec
// the driver rejects throws before anything runs. Results are returned
// in input order.
std::vector<SimResult> run_sim_batch(std::span<const SimSpec> specs);

// ---- Stable string forms (CLI flags and CSV cells) ----------------------

const char* to_string(SimDriverKind kind);
const char* to_string(SimWorkloadKind kind);
const char* to_string(ReplacementKind kind);
std::optional<SimDriverKind> parse_driver_kind(std::string_view name);
std::optional<SimWorkloadKind> parse_workload_kind(std::string_view name);
std::optional<ReplacementKind> parse_replacement_kind(std::string_view name);
std::optional<PrefetchPolicy> parse_policy(std::string_view name);
std::optional<SubArbitration> parse_sub_arbitration(std::string_view name);
std::optional<DeltaRule> parse_delta_rule(std::string_view name);
std::optional<PredictorKind> parse_predictor_kind(std::string_view name);
std::optional<ProbMethod> parse_prob_method(std::string_view name);
const char* policy_token(PrefetchPolicy policy);
const char* sub_token(SubArbitration sub);
const char* delta_token(DeltaRule rule);

// ---- Workload materialization -------------------------------------------

// Flat request cycles plus the generating catalog, for the cycle-driven
// drivers (TraceReplay, NetsimDes learned mode, Scenario). `build` seeds
// the structure, `walk` the trajectory — the same split every simulator
// uses, so a workload is reproducible independently of what consumes it.
struct MaterializedWorkload {
  std::size_t n_items = 0;
  std::vector<TraceRecord> cycles;        // (item, viewing time) per cycle
  std::vector<double> retrieval_times;    // generator's r catalog
};

MaterializedWorkload materialize_workload(const SimWorkload& workload,
                                          std::size_t requests, Rng& build,
                                          Rng& walk);

// ---- simctl substrate (sharding + CSV) ----------------------------------
//
// A sweep is an ordered std::vector<SimSpec>; each spec's position is its
// stable index. A shard i/N owns the indices with index % N == i, so any
// partition of the sweep covers each index exactly once and the merged
// output is byte-identical to a single-process run.

bool shard_owns(std::size_t index, std::size_t shard_index,
                std::size_t shard_count);

// One header + one row per run; the leading `index` column is the merge
// key. Doubles format via operator<< (6 significant digits), so equal
// results produce equal text.
std::vector<std::string> sim_csv_header();
void append_sim_csv_row(CsvWriter& writer, std::size_t index,
                        const SimSpec& spec, const SimResult& result);

// Per-client companion document (multi_client driver): one row per
// (spec index, client) with that client's own counters, so sweeps can
// analyze fairness/straggler effects that the merged row hides. Specs
// without per-client results (every single-client driver) emit nothing.
std::vector<std::string> per_client_csv_header();
void append_per_client_csv_rows(CsvWriter& writer, std::size_t index,
                                const SimSpec& spec,
                                const SimResult& result);

// Merges shard CSV outputs (each: header + index-prefixed rows) back into
// the single-run document: rows sorted by index, exactly the indices
// 0..total-1 present once each. Throws std::invalid_argument on header
// mismatch, duplicate or missing indices, or malformed rows — a spec
// index appearing in two inputs (overlapping shards, or the same shard
// merged twice) is an error, never a silent concatenation. `names`,
// when given, labels each shard document in diagnostics (simctl passes
// the input file paths); it must be empty or match `shards` in size.
//
// Per-client companion documents are recognized by their header (second
// column `client`) and merge on the (index, client) pair instead: a spec
// index may span several rows, clients dense from 0 within it, and the
// index set must still be exactly 0..max — so a sharded per-client sweep
// interleaves back into the single-run companion byte for byte.
std::string merge_sharded_csv(const std::vector<std::string>& shards,
                              const std::vector<std::string>& names = {});

}  // namespace skp
