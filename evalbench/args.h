#pragma once

// Strict command line of the evalbench binary. Unlike the figure benches'
// bench::Args, every flag is checked: an unknown, repeated or missing flag,
// a malformed number (`--seed=5k`) or an out-of-range value is an error
// whose message names the flag.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace evalbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  /// Chrome trace-event file the traced run writes at exit.
  std::string spans_out;
  bool help = false;
};

struct ArgError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Accepts `--flag value` and `--flag=value`. `workload_names` lists the
/// values --workload may take. Throws ArgError.
Args parse_args(int argc, const char* const* argv,
                const std::vector<std::string_view>& workload_names);

std::string usage(const std::vector<std::string_view>& workload_names);

}  // namespace evalbench
