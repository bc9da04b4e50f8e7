// Shared command-line handling for the figure-reproduction binaries.
//
// Every bench accepts:
//   --full          paper-scale run (50 000 iterations etc.); default is a
//                   reduced-scale run that finishes in seconds
//   --seed <u64>    RNG seed (default 1)
//   --csv <dir>     also write each series as CSV files into <dir>; the
//                   directory is created (or found unwritable) while the
//                   flags are parsed, before any work runs
//   --threads <n>   worker threads for the sweep drivers (0 = one per
//                   hardware thread, the default; 1 = serial). Sweep
//                   results are bit-identical for every thread count —
//                   each sim point is independently seeded — so this only
//                   changes wall-clock.
//   --no-plan-cache disable cross-request plan memoization in sims that
//                   support it (A/B switch; results are bit-identical
//                   either way, only wall-clock changes)
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"

namespace skp::bench {

struct BenchArgs {
  bool full = false;
  std::uint64_t seed = 1;
  std::optional<std::string> csv_dir;
  std::size_t threads = 0;  // 0 = hardware concurrency
  bool no_plan_cache = false;
};

// A bad number exits 2, like an unknown flag, instead of running with a
// silently substituted 0.
inline std::uint64_t parse_u64_arg(const std::string& value,
                                   const char* flag) {
  try {
    return parse_u64(value, flag);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--full") {
      args.full = true;
    } else if (a == "--seed" && i + 1 < argc) {
      args.seed = parse_u64_arg(argv[++i], "--seed");
    } else if (a == "--csv" && i + 1 < argc) {
      args.csv_dir = argv[++i];
      try {
        prepare_output_dir(*args.csv_dir);
      } catch (const OutputPathError& e) {
        std::cerr << e.what() << "\n";
        std::exit(1);
      }
    } else if (a == "--threads" && i + 1 < argc) {
      args.threads =
          static_cast<std::size_t>(parse_u64_arg(argv[++i], "--threads"));
    } else if (a == "--no-plan-cache") {
      args.no_plan_cache = true;
    } else if (a == "--help" || a == "-h") {
      std::cout << "usage: " << argv[0]
                << " [--full] [--seed <u64>] [--csv <dir>]"
                   " [--threads <n>] [--no-plan-cache]\n";
      std::exit(0);
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      std::exit(2);
    }
  }
  return args;
}

}  // namespace skp::bench
