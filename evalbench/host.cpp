#include "host.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <vector>

namespace evalbench {

namespace {

std::string env_or_unknown(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : "unknown";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

HostInfo host_info() {
  HostInfo h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu_model = cpu_model();
  h.compiler = EVALBENCH_COMPILER;
  h.build_type = EVALBENCH_BUILD_TYPE;
  h.fprop_obs = EVALBENCH_FPROP_OBS != 0;
  h.git_commit = env_or_unknown("EVALBENCH_GIT_COMMIT");
  h.source_digest = env_or_unknown("EVALBENCH_SOURCE_DIGEST");
  return h;
}

bool optimized_build(const HostInfo& host) {
#if defined(__OPTIMIZE__)
  return host.build_type == "Release" || host.build_type == "RelWithDebInfo";
#else
  (void)host;
  return false;
#endif
}

std::string meta_json(const HostInfo& host, const std::string& workload,
                      std::uint64_t seed, std::size_t jobs) {
  return "{\"nproc\": " + std::to_string(host.nproc) +
         ", \"cpu_model\": " + json_quote(host.cpu_model) +
         ", \"compiler\": " + json_quote(host.compiler) +
         ", \"build_type\": " + json_quote(host.build_type) +
         ", \"fprop_obs\": " + (host.fprop_obs ? "true" : "false") +
         ", \"git_commit\": " + json_quote(host.git_commit) +
         ", \"source_digest\": " + json_quote(host.source_digest) +
         ", \"workload\": " + json_quote(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"jobs\": " + std::to_string(jobs) + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace evalbench

namespace evalbench {

namespace {

/// Fixed work in the benchmark's own code, so no change to the library can
/// move it, shaped like the library's hot loop: a switch-dispatched
/// interpreter over a pseudo-random eight-op program that loads and stores
/// 64-bit words of a 256 KiB heap, partly in sequence and partly at random.
/// The heap stays small so the probe does not raise peak_rss_mb; a 32 MiB
/// heap tracked the host's swings no better.
std::uint64_t calibration_kernel() {
  constexpr std::size_t kWords = std::size_t{1} << 15;
  constexpr std::size_t kProgram = 1024;
  constexpr std::size_t kSteps = std::size_t{1} << 23;
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<std::uint64_t> heap(kWords, 1);
  std::vector<std::uint8_t> program(kProgram);
  for (auto& op : program) op = static_cast<std::uint8_t>(next() & 7);
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  std::size_t addr = 0;
  std::size_t pc = 0;
  for (std::size_t step = 0; step < kSteps; ++step) {
    switch (program[pc]) {
      case 0: a += b; break;
      case 1: b ^= a >> 3; break;
      case 2: a *= 0x9e3779b97f4a7c15ULL; break;
      case 3:
        addr = (addr + 1) & (kWords - 1);
        a += heap[addr];
        break;
      case 4:
        heap[addr] = a;
        addr = (addr + 513) & (kWords - 1);
        break;
      case 5: b += heap[next() & (kWords - 1)]; break;
      case 6: heap[next() & (kWords - 1)] ^= b; break;
      default:
        if ((a & 1) != 0) pc = (pc + (b & 15)) & (kProgram - 1);
        break;
    }
    pc = (pc + 1) & (kProgram - 1);
  }
  return a ^ b;
}

}  // namespace

double calibrate(std::size_t threads) {
  std::vector<std::uint64_t> results(threads);
  const auto start = std::chrono::steady_clock::now();
  // One copy runs on the calling thread, so a single-threaded probe shares
  // the CPU of the single-threaded work it calibrates.
  std::vector<std::thread> pool;
  for (std::size_t t = 1; t < threads; ++t) {
    pool.emplace_back([&results, t] { results[t] = calibration_kernel(); });
  }
  results[0] = calibration_kernel();
  for (auto& t : pool) t.join();
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (const std::uint64_t r : results) {
    // Any use of the results keeps the kernels from being optimized away.
    if (r == 0) std::fputc('\0', stderr);
  }
  return s;
}

}  // namespace evalbench
