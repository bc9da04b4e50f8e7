// The three benchmark workloads and what they share: run arguments, the
// report each fills in, and small helpers (seed mixing, RSS, result
// equality text).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"
#include "sim/runtime.hpp"

namespace pb {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string skpd_bin;   // daemon binary (skpd_serve)
  std::string trace_out;  // span CSV path of the traced run ("" = none)
};

// End-to-end metric names, in report order (every workload fills all).
// A workload may report more (session_open_p50_us / _p99_us, and
// skpd_serve's max_steps_per_s); those are printed but are not part of
// the result object.
inline const std::vector<std::pair<std::string, std::string>>& e2e_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"requests_per_s", "1/s"},
      {"step_p50_us", "us"},
      {"step_p99_us", "us"},
      {"bytes_per_session", "B"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

// Per-layer metric names of the traced run. A workload that does not
// exercise a layer reports 0 for it (that layer did no work there).
inline const std::vector<std::pair<std::string, std::string>>&
layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.plan_ns_per_req", "ns"},
      {"core.evictions_per_plan", "count"},
      {"core.fetches_per_plan", "count"},
      {"core.solver_nodes_per_req", "count"},
      {"core.memo.select_hit_ratio", "ratio"},
      {"core.memo.plan_hit_ratio", "ratio"},
      {"cache.mutate_ns_per_req", "ns"},
      {"cache.resident_hit_ratio", "ratio"},
      {"cache.prefetch_useful_ratio", "ratio"},
      {"workload.source_ns_per_req", "ns"},
      {"predict.predict_ns_per_req", "ns"},
      {"predict.observe_ns_per_req", "ns"},
      {"predict.support_per_req", "count"},
      {"sim.request_ns_per_req", "ns"},
      {"sim.link_utilization", "ratio"},
      {"sim.fault.retry_ratio", "ratio"},
      {"sim.fault.abandon_ratio", "ratio"},
      {"core.overload.degraded_window_ratio", "ratio"},
      {"sim.catalog.acquire_us", "us"},
      {"sim.stepper_construct_us", "us"},
      {"skpd.codec_ns_per_step", "ns"},
      {"skpd.wire_bytes_per_step", "B"},
      {"skpd.server_step_us", "us"},
      {"skpd.wire_share", "ratio"},
      {"skpd.daemon_cpu_util", "ratio"},
      {"skpd.inflight_p99", "count"},
      {"skpd.gen_lag_p99_us", "us"},
      {"trace.requests_per_s_ratio", "ratio"},
  };
  return names;
}

struct Report {
  std::map<std::string, double> values;  // metric name -> value
  std::vector<std::string> notes;        // human-readable detail lines
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what);
  // Records a tail/median statistic and notes which percentile and how
  // many samples stand behind it. With `window` > 0 the value is the
  // median over consecutive windows of that many samples (windowed_quantile).
  void quantile(const std::string& name, std::vector<double> samples,
                double want, std::size_t window = 0);
};

Report run_fig7_sweep(const RunArgs& args);
Report run_des_fleet(const RunArgs& args);
Report run_skpd_serve(const RunArgs& args);

// Deterministic stream mixing for derived seeds (splitmix64 finalizer).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// Peak resident set of this process, MB.
double self_peak_rss_mb();

// Every counter of a result as exact text (the skpd wire's result codec),
// so two results are equal iff their texts are.
std::string result_text(const skp::SimResult& result);

// Notes each span name's count and self time, and writes the spans to
// args.trace_out when one is given (a failed write fails the run).
void report_trace(const Tracer& tracer, const RunArgs& args, Report& report);

// The per-layer ratios that come straight from simulator counters.
void counter_layers(const skp::SimResult& total, Report& report);

}  // namespace pb
