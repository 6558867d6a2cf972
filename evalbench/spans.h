#pragma once

// Layer spans for the traced run: one span per call into a layer's public
// entry point, carrying name, start, end, parent, app and trial index. Spans
// stay in memory until the run ends; the run then reports each layer's self
// time and writes the spans once as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace evalbench {

struct SpanRecord {
  const char* name = "";  ///< string literal, "<layer>.<entry point>"
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no parent
  std::int32_t app = -1;     ///< index into the run's app list
  std::int64_t trial = -1;
  std::uint32_t thread = 0;  ///< threads numbered in order of first span
  std::int64_t start_ns = 0;  ///< since the log was created
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  std::int64_t since_epoch_ns(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  std::uint64_t new_id() { return next_id_.fetch_add(1); }
  /// Thread-safe; numbers the calling thread on its first span.
  void add(SpanRecord r);
  std::vector<SpanRecord> records() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;                  // guarded by mu_
  std::map<std::thread::id, std::uint32_t> threads_;  // guarded by mu_
};

/// Times one call. It always measures, so the untraced run takes its set-up
/// split from the same code; it records a span only when `log` is non-null.
/// Spans nest per thread: the parent is the innermost span open on the
/// calling thread, or `parent` when given (a worker thread's outer span).
/// Close spans on a thread in the reverse order they were opened.
class Span {
 public:
  Span(SpanLog* log, const char* name, int app = -1, std::int64_t trial = -1,
       std::uint64_t parent = 0);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span on the first call; returns its duration in seconds.
  double close();
  std::uint64_t id() const noexcept { return rec_.id; }

 private:
  static thread_local Span* innermost_;
  SpanLog* log_;
  Span* outer_ = nullptr;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = -1.0;
  SpanRecord rec_;
};

struct LayerTime {
  std::string name;
  std::size_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< duration minus the part child spans cover
};

struct SpanReport {
  std::vector<LayerTime> layers;  ///< by self time, largest first
  double wall_s = 0.0;            ///< duration of the root span
  /// Share of the root's wall time inside at least one layer span; the
  /// benchmark's own "bench.*" grouping spans do not count.
  double coverage = 0.0;
};

/// Self time per span name under `root` (a span id), and coverage.
SpanReport analyze(const std::vector<SpanRecord>& spans, std::uint64_t root);

/// Writes every span as a Chrome trace-event "X" event; `meta_json` goes to
/// the file's otherData. Creates missing parent directories.
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        const std::vector<std::string>& app_names,
                        const std::string& meta_json);

}  // namespace evalbench
