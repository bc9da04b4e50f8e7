// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload fig7_sweep|des_fleet|skpd_serve --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--skpd-bin PATH]
//
// Prints one line per metric ("name = value unit") plus detail notes,
// then, as the last stdout line, the JSON result object. Exits 1 when any
// correctness check failed, 2 on a usage error.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "sim/skpd_protocol.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_SKPD_BIN
#define PERFBENCH_SKPD_BIN ""
#endif

namespace pb {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Report::quantile(const std::string& name, std::vector<double> samples,
                      double want, std::size_t window) {
  const Quantile q = window ? pb::windowed_quantile(samples, window, want)
                            : pb::quantile(samples, want);
  values[name] = q.value;
  char buf[200];
  if (window && q.samples >= 2 * window) {
    std::snprintf(buf, sizeof(buf),
                  "%s: median over %zu windows of %zu samples of p%.2f",
                  name.c_str(), q.samples / window, window, q.percentile);
  } else {
    std::snprintf(buf, sizeof(buf), "%s: p%.2f of %zu samples", name.c_str(),
                  q.percentile, q.samples);
  }
  notes.push_back(buf);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string result_text(const skp::SimResult& result) {
  return skp::encode_sim_result(result);
}

void report_trace(const Tracer& tracer, const RunArgs& args, Report& rep) {
  for (const auto& [name, t] : tracer.totals()) {
    rep.notes.push_back("span " + name + ": " + std::to_string(t.count) +
                        " spans, self " +
                        format_number(static_cast<double>(t.self_ns) / 1e6) +
                        " ms");
  }
  if (!args.trace_out.empty()) {
    rep.check(tracer.write_csv(args.trace_out),
              args.workload + ": cannot write " + args.trace_out);
  }
}

void counter_layers(const skp::SimResult& t, Report& r) {
  const skp::SimMetrics& m = t.metrics;
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double req = static_cast<double>(m.requests);
  const double pf = static_cast<double>(m.prefetch_fetches);
  r.values["core.solver_nodes_per_req"] =
      ratio(static_cast<double>(m.solver_nodes), req);
  r.values["core.memo.select_hit_ratio"] = t.plan_cache.selections.hit_rate();
  r.values["core.memo.plan_hit_ratio"] = t.plan_cache.plans.hit_rate();
  r.values["cache.resident_hit_ratio"] =
      ratio(static_cast<double>(t.resident_hits()), req);
  r.values["cache.prefetch_useful_ratio"] =
      ratio(pf - static_cast<double>(m.wasted_prefetches), pf);
  r.values["sim.fault.retry_ratio"] =
      ratio(static_cast<double>(t.fault.retries), req);
  r.values["sim.fault.abandon_ratio"] =
      ratio(static_cast<double>(t.fault.abandoned), req);
  r.values["core.overload.degraded_window_ratio"] =
      ratio(static_cast<double>(t.overload.degraded_requests), req);
}

}  // namespace pb

namespace {

[[noreturn]] void usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload fig7_sweep|des_fleet|"
               "skpd_serve --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--skpd-bin PATH]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunArgs args;
  args.skpd_bin = PERFBENCH_SKPD_BIN;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      const std::string v = argv[++i];
      if (a == "--workload") {
        args.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        args.seed = std::stoull(v);
      } else if (a == "--seconds") {
        args.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        args.trace = v == "1";
      } else if (a == "--trace-out") {
        args.trace_out = v;
      } else if (a == "--skpd-bin") {
        args.skpd_bin = v;
      } else {
        usage(("unknown argument: " + a).c_str());
      }
    }
  } catch (const std::exception&) {
    usage("malformed number");
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");

  pb::Report report;
  try {
    if (args.workload == "fig7_sweep") {
      report = pb::run_fig7_sweep(args);
    } else if (args.workload == "des_fleet") {
      report = pb::run_des_fleet(args);
    } else if (args.workload == "skpd_serve") {
      report = pb::run_skpd_serve(args);
    } else {
      usage(("unknown workload: " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }

  const auto& names = args.trace ? pb::layer_metrics() : pb::e2e_metrics();
  std::vector<pb::Metric> metrics;
  bool complete = true;
  for (const auto& [name, unit] : names) {
    const auto it = report.values.find(name);
    if (it == report.values.end()) {
      if (!args.trace) {
        std::cerr << "perfbench: metric " << name << " was not measured\n";
        complete = false;
      }
      metrics.push_back({name, 0.0, unit});
      continue;
    }
    metrics.push_back({name, it->second, unit});
  }
  for (const std::string& note : report.notes) {
    std::cout << "# " << note << "\n";
  }
  for (const pb::Metric& m : metrics) {
    std::cout << args.workload << " " << m.name << " = "
              << pb::format_number(m.value) << " " << m.unit << "\n";
  }
  for (const auto& [name, value] : report.values) {
    bool listed = false;
    for (const pb::Metric& m : metrics) listed = listed || m.name == name;
    if (!listed && !args.trace) {
      std::cout << args.workload << " " << name << " = "
                << pb::format_number(value) << " (not in the result object)\n";
    }
  }
  std::cout << args.workload << " op_fail_ratio = "
            << pb::format_number(
                   report.attempted
                       ? static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted)
                       : 0.0)
            << " failed/attempted (" << report.failed << " of "
            << report.attempted << ")\n";
  const bool correct = complete && report.failed == 0 && report.attempted > 0;
  std::cout << pb::result_json(correct, std::max<std::uint64_t>(
                                            report.attempted, 1),
                               report.failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}
