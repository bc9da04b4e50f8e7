#include "sim/netsim_stepper.hpp"

#include <utility>
#include <vector>

#include "core/plan_scratch.hpp"
#include "sim/fault.hpp"
#include "util/require.hpp"

namespace skp {

NetsimStepper::NetsimStepper(const SimSpec& spec)
    : NetsimStepper(spec, nullptr) {}

NetsimStepper::NetsimStepper(const SimSpec& spec,
                             std::shared_ptr<const SharedCatalog> catalog)
    : spec_(spec), walk_(0), drift_rng_(0) {
  const SimWorkload& w = spec_.workload;
  SKP_REQUIRE(w.n_items >= 2, "n_items must be >= 2");
  SKP_REQUIRE(spec_.requests >= 1, "requests must be >= 1");
  SKP_REQUIRE(spec_.warmup == 0,
              "netsim_des counts every request; use predictor_warmup for "
              "an observe-only prefix");
  // The session arbitrates its own victims (Figure-6 Pr-arbitration).
  SKP_REQUIRE(!spec_.pr_planning &&
                  spec_.replacement == ReplacementKind::LRU,
              "netsim_des has no replacement-policy pipeline; "
              "replacement/pr apply to the scenario driver");
  SKP_REQUIRE(spec_.sized_capacity == 0.0,
              "netsim_des has no byte-addressed cache; sized_capacity "
              "applies to the prefetch_cache driver");
  SKP_REQUIRE(spec_.multi_client == MultiClientSpec{},
              "netsim_des is single-client; the multi_client section "
              "applies to the multi_client driver");
  const std::size_t n = w.n_items;

  // The read-mostly group state (sizes, r, master chain, cycle script)
  // comes from the shared catalog; this session holds only its own
  // trajectory. Grounding streams are consumed inside build() exactly
  // as this constructor used to consume them inline.
  catalog_ = catalog ? std::move(catalog) : SharedCatalog::acquire(spec_);
  SKP_REQUIRE(catalog_->key() == SharedCatalog::key_of(spec_),
              "shared catalog does not belong to this spec's group");

  // Time-varying link: realized transfer pricing follows the schedule
  // while the catalog's r_i (and so planning) stays the base estimate.
  NetConfig net;
  net.bandwidth = spec_.bandwidth;
  net.latency = spec_.latency;
  net.schedule = spec_.link_schedule;

  EngineConfig ecfg;
  ecfg.policy = spec_.policy;
  ecfg.delta_rule = spec_.delta_rule;
  ecfg.arbitration.sub = spec_.sub;
  ecfg.min_profit_threshold = spec_.min_profit_threshold;
  ecfg.evaluate_plan_g = false;
  session_.emplace(catalog_->client(), std::move(net), ecfg,
                   spec_.cache_size);
  if (spec_.use_plan_cache) {
    session_->enable_plan_cache(spec_.plan_cache_capacity);
  }

  // Robustness layer: faults draw from their dedicated stream (never
  // perturbing build/walk), the controller watches every realized T.
  validate_fault_spec(spec_.fault);
  SKP_REQUIRE(spec_.deadline >= 0.0, "deadline must be >= 0");
  if (spec_.fault.enabled()) {
    session_->set_fault_injection(spec_.fault,
                                  Rng(spec_.seed).split(kFaultStreamSalt));
  }
  overload_ = OverloadController(spec_.overload);

  walk_ = catalog_->walk();
  if (spec_.predictor == PredictorKind::Oracle) {
    // Oracle mode: the DES rendition of the Fig.-7 protocol — ground-
    // truth transition rows, context keys enabling plan memoization.
    // The chain itself is the catalog's; this session owns only its
    // state cursor and walk stream.
    mcfg_ = catalog_->markov_config();
    source_ = &catalog_->source();
    drift_rng_ = catalog_->drift_rng();
    drift_period_ = catalog_->drift_period();
    state_ = catalog_->initial_state();
  } else {
    // Learned mode: the shared materialized cycles drive a private
    // predictor; an observe-only warmup plans against a zero row (the
    // planner then fetches nothing). No context key — the predictor's
    // state is outside the session's invalidation scope.
    mat_ = &catalog_->materialized();
    predictor_ = make_runtime_predictor(spec_.predictor, n);
  }
}

void NetsimStepper::count_plan() {
  const std::uint64_t now = session_->metrics().prefetch_fetches;
  if (now > prev_prefetches_) ++plans_;
  prev_prefetches_ = now;
}

void NetsimStepper::settle_request(double T) {
  if (spec_.deadline > 0.0 && T <= spec_.deadline) ++deadline_hits_;
  if (overload_.observe(T)) {
    // Rung change: memoized plans were computed against the previous
    // rung's degraded rows, so the context-key promise just broke.
    session_->invalidate_plan_cache();
    session_->set_plan_admission_frozen(
        overload_.rung() >= DegradationRung::kStrictAdmission);
  }
}

bool NetsimStepper::force_degrade() {
  if (!overload_.force_step_down()) return false;
  session_->invalidate_plan_cache();
  session_->set_plan_admission_frozen(
      overload_.rung() >= DegradationRung::kStrictAdmission);
  return true;
}

void NetsimStepper::step_oracle() {
  const std::size_t req = executed_;
  if (drift_period_ != 0 && req != 0 && req % drift_period_ == 0) {
    if (!owned_source_) {
      // First changepoint: this session's chain diverges from the
      // shared master, so it takes a private copy to mutate
      // (copy-on-write — sessions that never drift never copy).
      owned_source_.emplace(*source_);
      source_ = &*owned_source_;
    }
    owned_source_->redraw_transitions(mcfg_, drift_rng_);
    // The context keys' promise (state -> row) just broke.
    session_->invalidate_plan_cache();
  }
  const double v = source_->viewing_time(state_);
  // An observe-only warmup prefix plans against a zero row (fetches
  // nothing), mirroring the learned branch's semantics.
  const bool planning = req >= spec_.predictor_warmup;
  std::span<const double> row = planning
                                    ? source_->transition_row(state_)
                                    : catalog_->zero_row();
  if (planning && overload_.rung() != DegradationRung::kNormal) {
    // Degrade a copy — the source's rows are ground truth for every
    // later cycle.
    std::vector<double>& degraded = thread_plan_scratch().P;
    degraded.assign(row.begin(), row.end());
    overload_.degrade_row(degraded);
    row = degraded;
  }
  const auto next =
      static_cast<ItemId>(source_->sample_from(state_, walk_));
  std::optional<ItemId> oracle_next;
  if (planning && spec_.policy == PrefetchPolicy::Perfect) {
    oracle_next = next;
  }
  const double T =
      session_->request(next, v, row, oracle_next,
                        planning && spec_.use_plan_cache
                            ? std::optional<std::uint64_t>(state_)
                            : std::nullopt);
  count_plan();
  settle_request(T);
  state_ = static_cast<std::size_t>(next);
  last_T_ = T;
}

void NetsimStepper::step_learned() {
  const std::size_t i = executed_;
  const TraceRecord& rec = mat_->cycles[i];
  std::span<const double> row = catalog_->zero_row();
  if (i >= spec_.predictor_warmup) {
    std::vector<double>& P = thread_plan_scratch().P;
    predictor_->predict_into(P);
    for (double& p : P) {
      if (p < spec_.predictor_min_prob) p = 0.0;
    }
    overload_.degrade_row(P);
    row = P;
  }
  std::optional<ItemId> oracle_next;
  if (spec_.policy == PrefetchPolicy::Perfect) oracle_next = rec.item;
  const double T =
      session_->request(rec.item, rec.viewing_time, row, oracle_next);
  count_plan();
  settle_request(T);
  predictor_->observe(rec.item);
  last_T_ = T;
}

NetsimStepSnapshot NetsimStepper::step() {
  SKP_REQUIRE(!done(), "netsim stepper already ran all "
                           << spec_.requests << " cycles");
  if (spec_.predictor == PredictorKind::Oracle) {
    step_oracle();
  } else {
    step_learned();
  }
  ++executed_;
  return snapshot();
}

NetsimStepSnapshot NetsimStepper::snapshot() const {
  const SimMetrics& m = session_->metrics();
  NetsimStepSnapshot s;
  s.seq = executed_;
  s.T = last_T_;
  s.requests = m.requests;
  s.hits = m.hits;
  s.demand_fetches = m.demand_fetches;
  s.prefetch_fetches = m.prefetch_fetches;
  s.solver_nodes = m.solver_nodes;
  s.plans = plans_;
  s.deadline_hits = deadline_hits_;
  return s;
}

SimResult NetsimStepper::result() const {
  SimResult out;
  out.metrics = session_->metrics();
  out.plan_cache = session_->plan_cache_stats();
  out.plans = plans_;
  out.link_utilization = session_->link_utilization();
  out.fault = session_->fault_stats();
  out.overload = overload_.stats();
  out.deadline_hits = deadline_hits_;
  return out;
}

}  // namespace skp
