// des_fleet: thousands of netsim_des sessions with learned predictors,
// stepped round-robin in one thread through NetsimStepper::step.
//
// A generation is kSessions sessions over kGroups catalog groups (one
// shared catalog each, interned through SharedCatalog::acquire). The
// predictors are a markov1 / lz78 / ppm mix; a quarter of the sessions
// run a lossy link (fail and stall faults, retries) under the overload
// controller. Learned planning carries no context key, so the plan memo
// is bypassed here by design. When a generation finishes before the time
// budget, the next one is built from the next derived seed.
//
// The traced run replays the sessions through a benchmark-side mirror of
// the learned NetsimStepper path (Predictor::predict_into / observe,
// OverloadController, ClientSession::request) with a span per layer, and
// passes each step's STEP / STEP_RESULT pair through the skpd wire codec
// in process (the framing a daemon-served session pays per step).
#include <memory>
#include <optional>

#include "core/overload.hpp"
#include "predict/predictor.hpp"
#include "sim/catalog.hpp"
#include "sim/fault.hpp"
#include "sim/netsim.hpp"
#include "sim/netsim_stepper.hpp"
#include "sim/skpd_protocol.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace skp;

constexpr std::size_t kSessions = 2'000;
constexpr std::size_t kGroups = 32;
constexpr std::size_t kSetupReps = 5;
constexpr std::uint64_t kChunkSteps = 4'000;

// The seed draws each catalog group's chain; the session mix (predictor,
// cache size, policy, lossy share, lengths) is fixed by the session index,
// so every seed runs the same proportions and runs differ only in chains.
SimSpec session_spec(std::uint64_t gen_seed, std::size_t i) {
  const std::size_t group = i % kGroups;
  SimSpec spec;
  spec.driver = SimDriverKind::NetsimDes;
  spec.workload.kind = SimWorkloadKind::Markov;
  spec.workload.n_items = 100;
  spec.seed = mix_seed(gen_seed, group) >> 1;
  spec.requests = 200 + (group % 5) * 100;  // one length per catalog group
  static constexpr PredictorKind kPredictors[] = {
      PredictorKind::Markov1, PredictorKind::Lz78, PredictorKind::Ppm};
  spec.predictor = kPredictors[i % 3];
  static constexpr std::size_t kCaches[] = {5, 10, 20};
  spec.cache_size = kCaches[(i / 3) % 3];
  spec.policy = (i / 9) % 4 == 0 ? PrefetchPolicy::KP : PrefetchPolicy::SKP;
  if ((i / 36) % 4 == 0) {  // the lossy share
    spec.fault.fail_rate = 0.1;
    spec.fault.stall_rate = 0.05;
    spec.fault.retry.max_attempts = 3;
    spec.fault.retry.backoff_base = 0.5;
    spec.overload.enabled = true;
  }
  return spec;
}

struct Fleet {
  std::vector<SimSpec> specs;
  std::vector<std::unique_ptr<NetsimStepper>> steppers;
};

// Builds a generation; records per-session open times (catalog acquire
// plus stepper construction) and the per-layer split.
Fleet build_fleet(std::uint64_t gen_seed, std::vector<double>& open_us,
                  double& acquire_us, double& construct_us) {
  Fleet f;
  acquire_us = construct_us = 0.0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    f.specs.push_back(session_spec(gen_seed, i));
    const std::int64_t t0 = now_ns();
    std::shared_ptr<const SharedCatalog> catalog =
        SharedCatalog::acquire(f.specs.back());
    const std::int64_t t1 = now_ns();
    f.steppers.push_back(
        std::make_unique<NetsimStepper>(f.specs.back(), std::move(catalog)));
    const std::int64_t t2 = now_ns();
    acquire_us += static_cast<double>(t1 - t0) / 1e3;
    construct_us += static_cast<double>(t2 - t1) / 1e3;
    open_us.push_back(static_cast<double>(t2 - t0) / 1e3);
  }
  acquire_us /= kSessions;
  construct_us /= kSessions;
  return f;
}

struct SpanIds {
  explicit SpanIds(Tracer& t)
      : step(t.name_id("step")),
        predict(t.name_id("predict.predict")),
        degrade(t.name_id("core.overload.degrade")),
        request(t.name_id("sim.request")),
        settle(t.name_id("core.overload.observe")),
        observe(t.name_id("predict.observe")),
        codec(t.name_id("skpd.codec")) {}
  std::uint32_t step, predict, degrade, request, settle, observe, codec;
};

// One step's exchange through the skpd wire codec, in process: the STEP
// frame a client sends and the STEP_RESULT frame the daemon answers with,
// each encoded, framed, parsed and decoded. Returns the bytes moved;
// `exact` turns false if the result does not round-trip bit for bit.
std::size_t wire_round_trip(const NetsimStepSnapshot& snap, bool& exact) {
  std::string wire;
  SkpdStep req;
  req.seq = snap.seq;
  req.ack = snap.seq - 1;
  append_skpd_frame(wire, SkpdFrameType::kStep, encode_step(req));
  append_skpd_frame(wire, SkpdFrameType::kStepResult,
                    encode_step_result(snap));
  std::size_t off = 0;
  const std::optional<SkpdFrame> step = parse_skpd_frame(wire, off);
  const std::optional<SkpdFrame> result = parse_skpd_frame(wire, off);
  exact = exact && step && result &&
          decode_step(step->payload).seq == req.seq &&
          decode_step_result(result->payload) == snap;
  return wire.size();
}

// The learned NetsimStepper path rebuilt from public calls.
class MirrorSession {
 public:
  explicit MirrorSession(const SimSpec& spec)
      : spec_(spec),
        catalog_(SharedCatalog::acquire(spec)),
        mat_(&catalog_->materialized()),
        overload_(spec.overload),
        predictor_(make_runtime_predictor(spec.predictor,
                                          spec.workload.n_items)),
        P_(spec.workload.n_items, 0.0),
        zeros_(spec.workload.n_items, 0.0) {
    NetConfig net;
    net.bandwidth = spec.bandwidth;
    net.latency = spec.latency;
    net.schedule = spec.link_schedule;
    EngineConfig e;
    e.policy = spec.policy;
    e.delta_rule = spec.delta_rule;
    e.arbitration.sub = spec.sub;
    e.min_profit_threshold = spec.min_profit_threshold;
    e.evaluate_plan_g = false;
    session_.emplace(catalog_->client(), std::move(net), e, spec.cache_size);
    if (spec.use_plan_cache) {
      session_->enable_plan_cache(spec.plan_cache_capacity);
    }
    validate_fault_spec(spec.fault);
    if (spec.fault.enabled()) {
      session_->set_fault_injection(spec.fault,
                                    Rng(spec.seed).split(kFaultStreamSalt));
    }
  }

  std::uint64_t support() const noexcept { return support_; }
  std::uint64_t wire_bytes() const noexcept { return wire_bytes_; }
  bool wire_exact() const noexcept { return wire_exact_; }

  void step(Tracer* tr, const SpanIds& ids, std::uint64_t rid) {
    Scope root(tr, ids.step, rid);
    const TraceRecord& rec = mat_->cycles[executed_];
    std::span<const double> row = zeros_;
    if (executed_ >= spec_.predictor_warmup) {
      {
        Scope s(tr, ids.predict, rid);
        predictor_->predict_into(P_);
        for (double& p : P_) {
          if (p < spec_.predictor_min_prob) {
            p = 0.0;
          } else {
            ++support_;
          }
        }
      }
      {
        Scope s(tr, ids.degrade, rid);
        overload_.degrade_row(P_);
      }
      row = P_;
    }
    std::optional<ItemId> oracle_next;
    if (spec_.policy == PrefetchPolicy::Perfect) oracle_next = rec.item;
    double T = 0.0;
    {
      Scope s(tr, ids.request, rid);
      T = session_->request(rec.item, rec.viewing_time, row, oracle_next);
    }
    {
      Scope s(tr, ids.settle, rid);
      const std::uint64_t now = session_->metrics().prefetch_fetches;
      if (now > prev_prefetches_) ++plans_;
      prev_prefetches_ = now;
      if (spec_.deadline > 0.0 && T <= spec_.deadline) ++deadline_hits_;
      if (overload_.observe(T)) {
        session_->invalidate_plan_cache();
        session_->set_plan_admission_frozen(
            overload_.rung() >= DegradationRung::kStrictAdmission);
      }
    }
    {
      Scope s(tr, ids.observe, rid);
      predictor_->observe(rec.item);
    }
    ++executed_;
    {
      Scope s(tr, ids.codec, rid);
      wire_bytes_ += wire_round_trip(snapshot(T), wire_exact_);
    }
  }

  // As NetsimStepper::snapshot(): what a STEP_RESULT frame carries.
  NetsimStepSnapshot snapshot(double T) const {
    const SimMetrics& m = session_->metrics();
    NetsimStepSnapshot s;
    s.seq = executed_;
    s.T = T;
    s.requests = m.requests;
    s.hits = m.hits;
    s.demand_fetches = m.demand_fetches;
    s.prefetch_fetches = m.prefetch_fetches;
    s.solver_nodes = m.solver_nodes;
    s.plans = plans_;
    s.deadline_hits = deadline_hits_;
    return s;
  }

  SimResult result() const {
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

 private:
  SimSpec spec_;
  std::shared_ptr<const SharedCatalog> catalog_;
  const MaterializedWorkload* mat_;
  std::optional<ClientSession> session_;
  OverloadController overload_;
  std::unique_ptr<Predictor> predictor_;
  std::vector<double> P_;
  std::vector<double> zeros_;
  std::size_t executed_ = 0;
  std::uint64_t prev_prefetches_ = 0;
  std::uint64_t plans_ = 0;
  std::uint64_t deadline_hits_ = 0;
  std::uint64_t support_ = 0;
  std::uint64_t wire_bytes_ = 0;
  bool wire_exact_ = true;
};

void merge_into(SimResult& total, const SimResult& r) {
  total.metrics.merge(r.metrics);
  total.plan_cache.merge(r.plan_cache);
  total.plans += r.plans;
  total.fault.merge(r.fault);
  total.overload.merge(r.overload);
}

}  // namespace

Report run_des_fleet(const RunArgs& args) {
  Report rep;
  std::vector<double> setup_s, open_us, step_us;
  double acquire_us = 0.0, construct_us = 0.0;

  // Set-up: catalog interning plus session construction of generation 0,
  // repeated; the last build is the one that runs.
  Fleet fleet;
  std::uint64_t live0 = 0;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    fleet = Fleet{};
    live0 = live_bytes();
    const std::int64_t t0 = now_ns();
    fleet = build_fleet(mix_seed(args.seed, 0), open_us, acquire_us,
                        construct_us);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const double budget = args.trace ? args.seconds * 0.4 : args.seconds;
  double busy_s = 0.0;
  std::uint64_t steps = 0;
  // Throughput is the median rate over chunks of >= kChunkSteps steps, so
  // a burst of host noise moves a few chunks, not the figure.
  std::vector<double> chunk_rates, bytes;
  std::uint64_t chunk_steps = 0;
  std::int64_t chunk_ns = 0;
  SimResult total;
  // Generation 0 as the untraced run left it (for the traced replay).
  std::vector<std::size_t> executed0;
  std::vector<std::string> texts0;
  const std::int64_t start = now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(now_ns() - start) / 1e9;
  };
  for (std::size_t gen = 0;; ++gen) {
    if (gen > 0) {
      fleet = Fleet{};
      live0 = live_bytes();
      const std::int64_t t0 = now_ns();
      double a = 0.0, c = 0.0;
      fleet = build_fleet(mix_seed(args.seed, gen), open_us, a, c);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    bool active = true;
    while (active && elapsed() < budget) {
      active = false;
      const std::int64_t r0 = now_ns();
      for (auto& st : fleet.steppers) {
        if (st->done()) continue;
        const std::int64_t t0 = now_ns();
        st->step();
        step_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        ++steps;
        ++chunk_steps;
        active = true;
      }
      const std::int64_t round_ns = now_ns() - r0;
      busy_s += static_cast<double>(round_ns) / 1e9;
      chunk_ns += round_ns;
      if (chunk_steps >= kChunkSteps) {
        chunk_rates.push_back(static_cast<double>(chunk_steps) * 1e9 /
                              static_cast<double>(chunk_ns));
        chunk_steps = 0;
        chunk_ns = 0;
      }
    }
    // Footprint of the stepped generation (a generation cut short by the
    // budget counts only when it is the first).
    if (gen == 0 || !active) {
      bytes.push_back(static_cast<double>(live_bytes() - live0) /
                      static_cast<double>(kSessions));
    }
    if (gen == 0) {
      // Later generations only add allocator fragmentation, whose extent
      // depends on how many fit in the budget; the peak is taken here.
      rep.values["peak_rss_mb"] = self_peak_rss_mb();
      for (auto& st : fleet.steppers) {
        executed0.push_back(st->executed());
        texts0.push_back(result_text(st->result()));
      }
    }
    // Checks: the fault books balance in every session, and a seeded
    // sample of finished sessions equals a solo run_sim of its spec.
    std::size_t sampled = 0;
    for (std::size_t i = 0; i < kSessions; ++i) {
      const SimResult r = fleet.steppers[i]->result();
      merge_into(total, r);
      rep.check(r.fault.failed_transfers == r.fault.retries + r.fault.abandoned,
                "des_fleet: fault books do not balance in session " +
                    std::to_string(i));
      if (fleet.steppers[i]->done() &&
          mix_seed(args.seed ^ gen, i) % 256 == 0 && sampled < 8) {
        ++sampled;
        rep.check(result_text(run_sim(fleet.specs[i])) == result_text(r),
                  "des_fleet: round-robin session " + std::to_string(i) +
                      " differs from solo run_sim");
      }
    }
    if (elapsed() >= budget) break;
  }

  rep.values["setup_s"] = median(setup_s);
  rep.quantile("session_open_p50_us", open_us, 50.0);
  rep.quantile("session_open_p99_us", open_us, 99.0);
  const double rps = static_cast<double>(steps) / busy_s;  // overhead base
  rep.values["requests_per_s"] = chunk_rates.empty() ? rps : median(chunk_rates);
  double server_step_us = 0.0;  // mean NetsimStepper::step() time
  for (const double x : step_us) server_step_us += x;
  server_step_us /= static_cast<double>(std::max<std::size_t>(step_us.size(), 1));
  rep.quantile("step_p50_us", step_us, 50.0);
  rep.quantile("step_p99_us", step_us, 99.0);
  rep.values["bytes_per_session"] = median(bytes);
  rep.notes.push_back(std::to_string(kSessions) + " sessions per generation, " +
                      std::to_string(steps) + " steps");

  if (args.trace) {
    // Replay generation 0 through the mirror, each session as far as the
    // untraced run took it, and compare every session's counters.
    fleet = Fleet{};
    const std::uint64_t gen_seed = mix_seed(args.seed, 0);
    std::vector<std::unique_ptr<MirrorSession>> mirrors;
    for (std::size_t i = 0; i < kSessions; ++i) {
      mirrors.push_back(
          std::make_unique<MirrorSession>(session_spec(gen_seed, i)));
    }
    Tracer tracer;
    const SpanIds ids(tracer);
    std::uint64_t rid = 0;
    const std::int64_t t0 = now_ns();
    for (bool active = true; active;) {
      active = false;
      for (std::size_t i = 0; i < kSessions; ++i) {
        if (executed0[i] == 0) continue;
        mirrors[i]->step(&tracer, ids, rid++);
        --executed0[i];
        active = true;
      }
    }
    const double traced_s = static_cast<double>(now_ns() - t0) / 1e9;
    SimResult mirror_total;
    std::uint64_t support = 0, wire_bytes = 0;
    bool wire_exact = true;
    for (std::size_t i = 0; i < kSessions; ++i) {
      const SimResult r = mirrors[i]->result();
      merge_into(mirror_total, r);
      support += mirrors[i]->support();
      wire_bytes += mirrors[i]->wire_bytes();
      wire_exact = wire_exact && mirrors[i]->wire_exact();
      mirror_total.link_utilization += r.link_utilization;
      rep.check(result_text(r) == texts0[i],
                "des_fleet: traced session " + std::to_string(i) +
                    " differs from the untraced stepper");
    }
    const double n = static_cast<double>(rid);
    const auto self_ns = [&](const char* name) {
      return static_cast<double>(tracer.self_ns(name));
    };
    rep.values["predict.predict_ns_per_req"] = self_ns("predict.predict") / n;
    rep.values["predict.observe_ns_per_req"] = self_ns("predict.observe") / n;
    rep.values["predict.support_per_req"] = static_cast<double>(support) / n;
    rep.values["sim.request_ns_per_req"] = self_ns("sim.request") / n;
    rep.values["sim.link_utilization"] =
        mirror_total.link_utilization / static_cast<double>(kSessions);
    rep.values["core.fetches_per_plan"] =
        mirror_total.plans
            ? static_cast<double>(mirror_total.metrics.prefetch_fetches) /
                  static_cast<double>(mirror_total.plans)
            : 0.0;
    rep.check(wire_exact, "des_fleet: a step did not round-trip the skpd "
                          "wire codec exactly");
    rep.values["skpd.codec_ns_per_step"] = self_ns("skpd.codec") / n;
    rep.values["skpd.wire_bytes_per_step"] =
        static_cast<double>(wire_bytes) / n;
    rep.values["skpd.server_step_us"] = server_step_us;
    rep.values["sim.catalog.acquire_us"] = acquire_us;
    rep.values["sim.stepper_construct_us"] = construct_us;
    counter_layers(mirror_total, rep);
    // The wire codec is extra work the untraced steppers never do; it is
    // left out of the traced rate the overhead compares.
    const double traced_rps = n / (traced_s - self_ns("skpd.codec") / 1e9);
    rep.values["trace.requests_per_s_ratio"] = traced_rps / rps;
    rep.notes.push_back("tracing overhead: traced " + format_number(traced_rps) +
                        " steps/s (codec time excluded) vs untraced " +
                        format_number(rps));
    report_trace(tracer, args, rep);
  }
  return rep;
}

}  // namespace pb
