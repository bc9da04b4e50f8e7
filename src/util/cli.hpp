// Command-line helpers shared by simctl and the figure benches: strict
// unsigned parsing, and an output-path preflight that checks where
// results will go before any work runs, so a typo costs milliseconds
// instead of a finished sweep.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <system_error>

namespace skp {

// Parses `value` as a whole decimal unsigned integer. Digits only:
// std::stoull would parse a leading '-' and wrap it into a huge value,
// turning a typo into a near-infinite sweep, and strtoull reads "abc" as
// 0. Throws std::invalid_argument naming `flag` otherwise (overflow too).
inline std::uint64_t parse_u64(const std::string& value, const char* flag) {
  const std::string message = std::string(flag) +
                              " expects an unsigned integer, got '" + value +
                              "'";
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw std::invalid_argument(message);
  }
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    throw std::invalid_argument(message);
  }
}

// An output target that cannot be written.
struct OutputPathError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Creates `dir` (and missing parents) unless it exists; throws
// OutputPathError when it cannot be created or is not a directory.
inline void prepare_output_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!std::filesystem::is_directory(dir)) {
    throw OutputPathError("cannot create output directory '" + dir + "'" +
                          (ec ? ": " + ec.message() : std::string()));
  }
}

// Makes sure `path` can be written as an output file: its directory is
// created if missing, then the file is opened for append (and removed
// again if the probe created it). Throws OutputPathError otherwise.
inline void prepare_output_file(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  if (p.has_parent_path()) prepare_output_dir(p.parent_path().string());
  if (fs::is_directory(p)) {
    throw OutputPathError("output path '" + path + "' is a directory");
  }
  const bool existed = fs::exists(p);
  if (!std::ofstream(p, std::ios::app)) {
    throw OutputPathError("cannot write output file '" + path + "'");
  }
  std::error_code ec;
  if (!existed) fs::remove(p, ec);
}

}  // namespace skp
