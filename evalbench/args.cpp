#include "args.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <optional>

namespace evalbench {

namespace {

constexpr std::uint64_t kMaxSeconds = 3600;

std::uint64_t parse_whole(std::string_view flag, std::string_view text,
                          std::uint64_t lo, std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec == std::errc::invalid_argument || ptr != end) {
    throw ArgError(std::string(flag) + ": '" + std::string(text) +
                   "' is not a whole number");
  }
  if (ec == std::errc::result_out_of_range || v < lo || v > hi) {
    throw ArgError(std::string(flag) + ": " + std::string(text) +
                   " is outside [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
  }
  return v;
}

}  // namespace

std::string usage(const std::vector<std::string_view>& workload_names) {
  std::string names;
  for (const std::string_view n : workload_names) {
    names += names.empty() ? "" : " | ";
    names += n;
  }
  return "usage: evalbench --workload NAME --seed N --seconds S [--trace 0|1]\n"
         "                 [--spans-out FILE]\n"
         "  --workload   " + names + "\n"
         "  --seed       campaign seed, a whole number (required)\n"
         "  --seconds    measured time, 1.." + std::to_string(kMaxSeconds) +
         " (required)\n"
         "  --trace      1 = traced run printing per-layer metrics "
         "(default 0)\n"
         "  --spans-out  span file of the traced run (default\n"
         "               .bench_build/spans/WORKLOAD-seedN.json)\n";
}

Args parse_args(int argc, const char* const* argv,
                const std::vector<std::string_view>& workload_names) {
  static constexpr std::string_view kFlags[] = {
      "--workload", "--seed", "--seconds", "--trace", "--spans-out"};
  std::map<std::string_view, std::string_view> given;
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg == "--help" || arg == "-h") {
      args.help = true;
      return args;
    }
    if (arg.rfind("--", 0) != 0) {
      throw ArgError("unexpected argument '" + std::string(arg) + "'");
    }
    std::string_view flag = arg;
    std::optional<std::string_view> value;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      flag = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    }
    if (std::find(std::begin(kFlags), std::end(kFlags), flag) ==
        std::end(kFlags)) {
      throw ArgError("unknown flag '" + std::string(flag) + "'");
    }
    if (!value.has_value()) {
      if (i + 1 >= argc) throw ArgError(std::string(flag) + ": missing value");
      value = argv[++i];
    }
    if (!given.emplace(flag, *value).second) {
      throw ArgError(std::string(flag) + ": given more than once");
    }
  }

  const auto require = [&](std::string_view flag) {
    const auto it = given.find(flag);
    if (it == given.end()) {
      throw ArgError(std::string(flag) + ": required");
    }
    return it->second;
  };
  args.workload = std::string(require("--workload"));
  if (std::find(workload_names.begin(), workload_names.end(),
                args.workload) == workload_names.end()) {
    throw ArgError("--workload: unknown workload '" + args.workload + "'");
  }
  args.seed = parse_whole("--seed", require("--seed"), 0, UINT64_MAX);
  args.seconds = parse_whole("--seconds", require("--seconds"), 1, kMaxSeconds);
  if (const auto it = given.find("--trace"); it != given.end()) {
    args.trace = parse_whole("--trace", it->second, 0, 1) == 1;
  }
  if (const auto it = given.find("--spans-out"); it != given.end()) {
    if (it->second.empty()) throw ArgError("--spans-out: empty path");
    args.spans_out = std::string(it->second);
  } else {
    args.spans_out = ".bench_build/spans/" + args.workload + "-seed" +
                     std::to_string(args.seed) + ".json";
  }
  return args;
}

}  // namespace evalbench
