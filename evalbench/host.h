#pragma once

// Host and build metadata recorded with every result, so an absolute number
// is never read without the machine and build that produced it.

#include <cstdint>
#include <string>
#include <string_view>

namespace evalbench {

/// JSON text helpers shared by the metadata, span and result writers.
std::string json_quote(std::string_view s);
/// All 17 significant digits, so a measured value is printed as measured.
std::string json_number(double v);

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  bool fprop_obs = true;
  /// Supplied by run.py through the environment; "unknown" when the binary
  /// runs on its own.
  std::string git_commit;
  std::string source_digest;
};

HostInfo host_info();

/// True for an optimized build of this binary and the library it links (one
/// CMake build type covers both). Numbers from any other build are refused.
bool optimized_build(const HostInfo& host);

/// One JSON object: the host fields plus the run's workload, seed and
/// worker count.
std::string meta_json(const HostInfo& host, const std::string& workload,
                      std::uint64_t seed, std::size_t jobs);

/// Wall seconds `threads` concurrent copies of a fixed kernel take, one of
/// them on the calling thread: a probe of the host's speed that no change
/// to the library can move.
double calibrate(std::size_t threads);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

}  // namespace evalbench
