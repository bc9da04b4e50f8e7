// simctl figure presets: `simctl run --preset NAME --csv DIR` emits the
// same CSV files the corresponding bench binary writes, byte for byte
// (tools/simctl_preset_check.sh is the equivalence gate, registered as a
// ctest). A preset is a canned SimSpec enumeration + the legacy CSV
// pivot; the sweep itself fans out over sim/sweep.hpp exactly like the
// benches, so the numbers are thread-count independent.
//
//   fig5           four avg-T-vs-v panels (fig5{a..d}_n{10,25}_{skewy,flat}.csv)
//   fig7           access time vs cache size, five policies
//   ablation_sizes slot vs sized cache at matched byte budgets
//   network_usage  threshold sweep of the improvement/usage frontier
#pragma once

#include <cstdint>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/runtime.hpp"
#include "sim/sweep.hpp"
#include "simctl_args.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"

namespace skp::simctl {

struct PresetArgs {
  bool full = false;
  std::uint64_t seed = 1;
  std::string csv_dir;  // required: presets write figure-named files
  std::size_t threads = 0;
  bool no_plan_cache = false;
};

inline const char* preset_names() {
  return "fig5 | fig7 | ablation_sizes | network_usage";
}

namespace detail {

// ---- fig7: access time per request vs cache size ------------------------

inline void preset_fig7(const PresetArgs& args, ThreadPool& pool) {
  struct Policy {
    const char* name;
    PrefetchPolicy policy;
    SubArbitration sub;
  };
  const Policy kPolicies[] = {
      {"No+Pr", PrefetchPolicy::None, SubArbitration::None},
      {"KP+Pr", PrefetchPolicy::KP, SubArbitration::None},
      {"SKP+Pr", PrefetchPolicy::SKP, SubArbitration::None},
      {"SKP+Pr+LFU", PrefetchPolicy::SKP, SubArbitration::LFU},
      {"SKP+Pr+DS", PrefetchPolicy::SKP, SubArbitration::DS},
  };
  const std::size_t requests = args.full ? 50'000 : 4'000;
  const std::size_t step = args.full ? 1 : 5;
  std::vector<std::size_t> sizes;
  sizes.push_back(1);
  for (std::size_t c = step; c <= 100; c += step) sizes.push_back(c);

  std::vector<SimSpec> specs;
  for (const Policy& pol : kPolicies) {
    for (const std::size_t cache_size : sizes) {
      SimSpec spec;  // prefetch_cache driver, paper-default Markov source
      spec.cache_size = cache_size;
      spec.policy = pol.policy;
      spec.sub = pol.sub;
      spec.delta_rule = DeltaRule::ExactComplement;
      spec.requests = requests;
      spec.seed = args.seed;
      spec.use_plan_cache = !args.no_plan_cache;
      specs.push_back(spec);
    }
  }
  const std::vector<double> mean_T =
      sweep_configs(pool, specs, [](const SimSpec& spec) {
        return run_sim(spec).metrics.mean_access_time();
      });

  auto f = open_csv(args.csv_dir + "/fig7_prefetch_cache.csv");
  CsvWriter w(f);
  w.row({"cache_size", "No+Pr", "KP+Pr", "SKP+Pr", "SKP+Pr+LFU",
         "SKP+Pr+DS"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    w.row_of(sizes[i], mean_T[0 * sizes.size() + i],
             mean_T[1 * sizes.size() + i], mean_T[2 * sizes.size() + i],
             mean_T[3 * sizes.size() + i], mean_T[4 * sizes.size() + i]);
  }
  std::cout << "preset fig7: " << specs.size()
            << " sim points -> fig7_prefetch_cache.csv\n";
}

// ---- fig5: average T against v, four policy panels ----------------------

inline void preset_fig5(const PresetArgs& args, ThreadPool& pool) {
  struct Policy {
    PrefetchPolicy policy;
    DeltaRule rule;
  };
  const Policy kPolicies[] = {
      {PrefetchPolicy::None, DeltaRule::ExactComplement},
      {PrefetchPolicy::Perfect, DeltaRule::ExactComplement},
      {PrefetchPolicy::KP, DeltaRule::ExactComplement},
      {PrefetchPolicy::SKP, DeltaRule::PaperTail},
      {PrefetchPolicy::SKP, DeltaRule::ExactComplement},
  };
  struct Panel {
    const char* label;
    std::size_t n;
    ProbMethod method;
  };
  const Panel panels[] = {
      {"a", 10, ProbMethod::Skewy},
      {"b", 10, ProbMethod::Flat},
      {"c", 25, ProbMethod::Skewy},
      {"d", 25, ProbMethod::Flat},
  };
  const std::size_t per_panel = std::size(kPolicies);
  std::vector<SimSpec> specs;
  for (const Panel& panel : panels) {
    for (const Policy& pol : kPolicies) {
      SimSpec spec;
      spec.driver = SimDriverKind::PrefetchOnly;
      spec.workload.kind = SimWorkloadKind::Iid;
      spec.workload.n_items = panel.n;
      spec.workload.method = panel.method;
      spec.policy = pol.policy;
      spec.delta_rule = pol.rule;
      spec.requests = args.full ? 50'000 : 10'000;
      spec.seed = args.seed;
      specs.push_back(spec);
    }
  }
  const std::vector<SimResult> results = sweep_configs(
      pool, specs, [](const SimSpec& spec) { return run_sim(spec); });

  for (std::size_t p = 0; p < std::size(panels); ++p) {
    const Panel& panel = panels[p];
    // The paper clips the plot (and the bench its CSV) at v = 50.
    std::vector<std::vector<std::pair<double, double>>> raw;
    for (std::size_t k = 0; k < per_panel; ++k) {
      const SimResult& res = results[p * per_panel + k];
      std::vector<std::pair<double, double>> series;
      for (const auto& [v, t] : res.avg_T_by_v->series()) {
        if (v <= 50.0) series.emplace_back(v, t);
      }
      raw.push_back(std::move(series));
    }
    auto f = open_csv(args.csv_dir + "/fig5" + std::string(panel.label) +
                      "_n" + std::to_string(panel.n) + "_" +
                      to_string(panel.method) + ".csv");
    CsvWriter w(f);
    w.row({"v", "none", "perfect", "KP", "SKP_paper", "SKP_exact"});
    for (std::size_t i = 0; i < raw[0].size(); ++i) {
      w.row_of(raw[0][i].first, raw[0][i].second,
               i < raw[1].size() ? raw[1][i].second : 0.0,
               i < raw[2].size() ? raw[2][i].second : 0.0,
               i < raw[3].size() ? raw[3][i].second : 0.0,
               i < raw[4].size() ? raw[4][i].second : 0.0);
    }
  }
  std::cout << "preset fig5: " << specs.size()
            << " sim points -> fig5{a,b,c,d}_*.csv\n";
}

// ---- ablation_sizes: slot vs byte cache at matched budgets --------------

inline void preset_ablation_sizes(const PresetArgs& args,
                                  ThreadPool& pool) {
  const std::size_t requests = args.full ? 50'000 : 5'000;
  const std::size_t slot_counts[] = {5, 10, 20, 40, 80};
  constexpr std::size_t kCells = 3;  // slot model / uniform / coupled
  std::vector<SimSpec> specs;
  for (const std::size_t slots : slot_counts) {
    for (std::size_t cell = 0; cell < kCells; ++cell) {
      SimSpec spec;  // prefetch_cache driver, paper-default source
      spec.policy = PrefetchPolicy::SKP;
      spec.sub = SubArbitration::DS;
      spec.requests = requests;
      spec.seed = args.seed;
      if (cell == 0) {
        spec.cache_size = slots;
      } else {
        const double mean_size = 15.5;  // E[U{1..30}]
        spec.sized_capacity = static_cast<double>(slots) * mean_size;
        spec.size_per_r = cell == 1 ? 0.0 : 1.0;  // uniform vs coupled
        spec.size_lo = spec.size_hi = mean_size;
      }
      specs.push_back(spec);
    }
  }
  const std::vector<SimResult> results = sweep_configs(
      pool, specs, [](const SimSpec& spec) { return run_sim(spec); });

  auto f = open_csv(args.csv_dir + "/ablation_sizes.csv");
  CsvWriter(f).row({"slots", "slot_T", "uniform_T", "coupled_T",
                    "coupled_waste_rate"});
  for (std::size_t s = 0; s < std::size(slot_counts); ++s) {
    const auto& slot_res = results[s * kCells + 0];
    const auto& uni_res = results[s * kCells + 1];
    const auto& coupled_res = results[s * kCells + 2];
    CsvWriter(f).row_of(slot_counts[s],
                        slot_res.metrics.mean_access_time(),
                        uni_res.metrics.mean_access_time(),
                        coupled_res.metrics.mean_access_time(),
                        coupled_res.metrics.waste_rate());
  }
  std::cout << "preset ablation_sizes: " << specs.size()
            << " sim points -> ablation_sizes.csv\n";
}

// ---- network_usage: profit-threshold frontier ---------------------------

inline void preset_network_usage(const PresetArgs& args, ThreadPool& pool) {
  const std::size_t requests = args.full ? 50'000 : 6'000;
  const double thresholds[] = {0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 1e9};
  std::vector<SimSpec> specs;
  for (const double threshold : thresholds) {
    SimSpec spec;  // prefetch_cache driver, paper-default source
    spec.cache_size = 20;
    spec.policy = PrefetchPolicy::SKP;
    spec.sub = SubArbitration::DS;
    spec.requests = requests;
    spec.seed = args.seed;
    spec.min_profit_threshold = threshold;
    specs.push_back(spec);
  }
  const std::vector<SimResult> results = sweep_configs(
      pool, specs, [](const SimSpec& spec) { return run_sim(spec); });

  auto f = open_csv(args.csv_dir + "/network_usage.csv");
  CsvWriter(f).row({"threshold", "mean_T", "net_time_per_req",
                    "prefetches", "waste_rate"});
  for (std::size_t i = 0; i < std::size(thresholds); ++i) {
    const auto& res = results[i];
    CsvWriter(f).row_of(thresholds[i], res.metrics.mean_access_time(),
                        res.metrics.network_time_per_request(),
                        res.metrics.prefetch_fetches,
                        res.metrics.waste_rate());
  }
  std::cout << "preset network_usage: " << specs.size()
            << " sim points -> network_usage.csv\n";
}

}  // namespace detail

// Runs a named preset; throws std::invalid_argument on an unknown name
// or a missing --csv directory, and OutputPathError (before running
// anything) when the directory cannot be created.
inline void run_preset(const std::string& name, const PresetArgs& args) {
  if (args.csv_dir.empty()) {
    throw std::invalid_argument(
        "--preset emits figure-named CSV files; give --csv DIR");
  }
  void (*preset)(const PresetArgs&, ThreadPool&) = nullptr;
  if (name == "fig5") {
    preset = detail::preset_fig5;
  } else if (name == "fig7") {
    preset = detail::preset_fig7;
  } else if (name == "ablation_sizes") {
    preset = detail::preset_ablation_sizes;
  } else if (name == "network_usage") {
    preset = detail::preset_network_usage;
  } else {
    throw std::invalid_argument("unknown preset '" + name + "' (" +
                                preset_names() + ")");
  }
  prepare_output_dir(args.csv_dir);
  ThreadPool pool(args.threads);
  preset(args, pool);
}

}  // namespace skp::simctl
