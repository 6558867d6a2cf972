#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "host.h"

namespace evalbench {

void SpanLog::add(SpanRecord r) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, fresh] = threads_.emplace(
      std::this_thread::get_id(), static_cast<std::uint32_t>(threads_.size()));
  (void)fresh;
  r.thread = it->second;
  records_.push_back(r);
}

std::vector<SpanRecord> SpanLog::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

thread_local Span* Span::innermost_ = nullptr;

Span::Span(SpanLog* log, const char* name, int app, std::int64_t trial,
           std::uint64_t parent)
    : log_(log), start_(std::chrono::steady_clock::now()) {
  if (log_ == nullptr) return;
  rec_.name = name;
  rec_.id = log_->new_id();
  rec_.parent = parent != 0 ? parent
                            : (innermost_ != nullptr ? innermost_->rec_.id : 0);
  rec_.app = app;
  rec_.trial = trial;
  rec_.start_ns = log_->since_epoch_ns(start_);
  outer_ = innermost_;
  innermost_ = this;
}

double Span::close() {
  if (seconds_ >= 0.0) return seconds_;
  const auto end = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (log_ != nullptr) {
    rec_.end_ns = log_->since_epoch_ns(end);
    innermost_ = outer_;
    log_->add(rec_);
  }
  return seconds_;
}

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `parts` clipped to [lo, hi]. Spans of concurrent
/// worker threads overlap, so their durations cannot simply be summed.
std::int64_t covered_ns(std::vector<Interval> parts, std::int64_t lo,
                        std::int64_t hi) {
  std::sort(parts.begin(), parts.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;
  for (const auto& [a, b] : parts) {
    const std::int64_t from = std::max(a, reach);
    const std::int64_t to = std::min(b, hi);
    if (to > from) covered += to - from;
    reach = std::max(reach, to);
  }
  return covered;
}

}  // namespace

SpanReport analyze(const std::vector<SpanRecord>& spans, std::uint64_t root) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    index.emplace(spans[i].id, i);
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  if (index.count(root) == 0) throw std::runtime_error("root span missing");

  SpanReport report;
  std::map<std::string, LayerTime> by_name;
  std::vector<Interval> layer_spans;
  std::vector<std::uint64_t> todo{root};
  while (!todo.empty()) {
    const std::uint64_t id = todo.back();
    todo.pop_back();
    const SpanRecord& s = spans[index.at(id)];
    std::vector<Interval> kids;
    for (const std::size_t k : children[id]) {
      kids.emplace_back(spans[k].start_ns, spans[k].end_ns);
      todo.push_back(spans[k].id);
    }
    const std::int64_t dur_ns = s.end_ns - s.start_ns;
    const double dur = static_cast<double>(dur_ns) * 1e-9;
    const double self =
        static_cast<double>(dur_ns - covered_ns(kids, s.start_ns, s.end_ns)) *
        1e-9;
    if (id == root) {
      report.wall_s = dur;
      continue;
    }
    // The benchmark's own grouping spans ("bench.*") name no layer.
    if (std::string_view(s.name).rfind("bench.", 0) != 0) {
      layer_spans.emplace_back(s.start_ns, s.end_ns);
    }
    LayerTime& lt = by_name[s.name];
    lt.name = s.name;
    ++lt.calls;
    lt.total_s += dur;
    lt.self_s += self;
  }
  const SpanRecord& r = spans[index.at(root)];
  if (r.end_ns > r.start_ns) {
    report.coverage =
        static_cast<double>(covered_ns(layer_spans, r.start_ns, r.end_ns)) /
        static_cast<double>(r.end_ns - r.start_ns);
  }
  for (auto& [name, lt] : by_name) report.layers.push_back(lt);
  std::sort(report.layers.begin(), report.layers.end(),
            [](const LayerTime& a, const LayerTime& b) {
              return a.self_s > b.self_s;
            });
  return report;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans,
                        const std::vector<std::string>& app_names,
                        const std::string& meta_json) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << meta_json
      << ", \"traceEvents\": [";
  bool first = true;
  char buf[96];
  for (const SpanRecord& s : spans) {
    const std::string name(s.name);
    out << (first ? "\n" : ",\n") << "{\"name\": " << json_quote(name)
        << ", \"cat\": " << json_quote(name.substr(0, name.find('.')))
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread;
    std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << buf << ", \"args\": {\"id\": " << s.id << ", \"parent\": "
        << s.parent;
    if (s.app >= 0 && static_cast<std::size_t>(s.app) < app_names.size()) {
      out << ", \"app\": " << json_quote(app_names[s.app]);
    }
    if (s.trial >= 0) out << ", \"trial\": " << s.trial;
    out << "}}";
    first = false;
  }
  out << "\n]}\n";
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace evalbench
