// evalbench — the paper-evaluation benchmark (README.md).
//
//   evalbench --workload NAME --seed N --seconds S [--trace 0|1]
//
// --trace 0 sets up every paper app kSetupReps times, interleaved with
// rounds that regenerate the workload's artifact for S seconds with tracing
// off, and prints the end-to-end metrics. --trace 1 is the separate traced run:
// the same set-ups and rounds with a span around every call into a layer,
// each round run once plain and once traced, and prints the per-layer
// metrics. Both re-execute a sample of trials under the reference
// configuration, run the workload's self-checks, and print one JSON result
// as the last stdout line.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "args.h"
#include "fprop/support/rng.h"
#include "host.h"
#include "spans.h"
#include "workload.h"

using namespace evalbench;

namespace {

/// Set-ups per run. They repeat identical work, so setup_s is the median of
/// their scaled times, which rejects host bursts: one set-up varied by up to
/// 2x within a single run on the shared reference host. Rounds draw
/// different plans, so eval_s is the mean of theirs, which counts every
/// plan drawn, the rare heavy ones included.
constexpr std::size_t kSetupReps = 5;
/// Rounds the traced run makes even when S seconds pass sooner.
constexpr std::size_t kMinRounds = 3;
/// calibrate(1) and calibrate(kJobs) on the reference host (4-vCPU Xeon VM),
/// medians over 15 runs. That host's speed swings by up to 2x within
/// seconds with load from other tenants, for identical work, so every
/// set-up and every round is converted to reference-host seconds: its wall
/// time times the reference over the mean of the calibrations taken just
/// before and just after it on as many threads. Raw wall seconds are
/// printed too.
constexpr double kReferenceSetupCalibrationS = 0.069;
constexpr double kReferenceRoundCalibrationS = 0.073;

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Highest percentile of the ladder with at least ten samples beyond it.
double tail_percentile(std::size_t samples) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// `wall` seconds in reference-host seconds, from the calibrations taken
/// around it and the reference host's calibration on as many threads.
double to_reference(double wall, double before, double after,
                    double reference) {
  return wall * reference / (0.5 * (before + after));
}

/// Round 0 runs the seed as given, so it reproduces the example campaigns
/// at that seed; later rounds draw fresh plans from derived seeds.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return round == 0 ? seed : fprop::derive_seed(seed, round);
}

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

/// Human-readable lines, then the one-line JSON result that ends stdout.
int report(const Workload& w, const TrialCheck& check,
           const std::vector<std::string>& self_errors,
           const std::vector<Metric>& metrics) {
  for (const std::string& n : check.notes) {
    std::fprintf(stderr, "evalbench: FAILED %s\n", n.c_str());
  }
  for (const std::string& e : self_errors) {
    std::fprintf(stderr, "evalbench: %s self-check: %s\n", w.name, e.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("  %-32s %14.6g frac (%zu of %zu trials; %zu pruned slots "
              "re-executed)\n",
              "failed_frac",
              ratio(static_cast<double>(check.failed),
                    static_cast<double>(check.attempted)),
              check.failed, check.attempted, check.pruned_rerun);
  const bool correct = check.failed == 0 && self_errors.empty();
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(check.attempted) +
                     ", \"failed\": " + std::to_string(check.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i == 0 ? "" : ", ") + json_quote(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_quote(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 1;
}

int run_plain(const Workload& w, const Args& args) {
  TrialCheck check;
  std::vector<double> setup_s, setup_raw, setup_cal;
  std::vector<double> eval_s, eval_raw, eval_cal;
  double measured = 0.0;
  Setup setup;
  Round first;
  // Set-ups interleave with the rounds, so both sample the whole run. Each
  // set-up and each round sits between two calibrations on its own number
  // of threads; a round's first calibration is the previous round's last.
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    setup = Setup{};  // free the previous harnesses before building anew
    double before = calibrate(1);
    setup = build_setup(w, nullptr);
    double after = calibrate(1);
    setup_raw.push_back(setup.times.total);
    setup_cal.push_back(0.5 * (before + after));
    setup_s.push_back(to_reference(setup.times.total, before, after,
                                   kReferenceSetupCalibrationS));
    const double until = static_cast<double>(args.seconds) *
                         static_cast<double>(k + 1) / kSetupReps;
    before = calibrate(kJobs);
    while (measured < until) {
      const std::uint64_t r = eval_s.size();
      Round round =
          run_round(w, setup, round_seed(args.seed, r), nullptr, false);
      after = calibrate(kJobs);
      eval_raw.push_back(round.eval_s);
      eval_cal.push_back(0.5 * (before + after));
      eval_s.push_back(to_reference(round.eval_s, before, after,
                                    kReferenceRoundCalibrationS));
      before = after;
      measured += round.eval_s;
      if (r == 0) first = std::move(round);
    }
  }
  const double rss_mb = peak_rss_mb();
  std::printf("%s: %zu trials/app/round, %zu rounds, %zu set-ups, jobs=%zu\n",
              w.name, w.trials_per_app, eval_s.size(), setup_s.size(), kJobs);
  const auto print_row = [](const char* label, const std::vector<double>& v) {
    std::printf("  %-22s", label);
    for (const double e : v) std::printf(" %.4f", e);
    std::printf("\n");
  };
  print_row("rounds, raw (s):", eval_raw);
  print_row("rounds, calibration:", eval_cal);
  print_row("set-ups, raw (s):", setup_raw);
  print_row("set-ups, calibration:", setup_cal);
  std::printf("  raw eval_s %.6f s, raw setup_s %.6f s\n", mean(eval_raw),
              median(setup_raw));

  check_outputs(w, setup, first, nullptr, check);
  return report(w, check, self_check(w, first),
                {{"eval_s", mean(eval_s), "s"},
                 {"setup_s", median(setup_s), "s"},
                 {"peak_rss_mb", rss_mb, "MiB"}});
}

/// Samples the traced run collects: one set-up split per set-up, one time
/// per round, one per traced trial and per re-run fit.
struct TracedTotals {
  std::vector<SetupTimes> setups;
  std::vector<double> plan_s, execute_s, merge_s, fps_s, dump_s, overhead;
  std::vector<double> trial_ms, pruned_ms, full_ms, fit_ms;
};

/// Times are medians over set-ups or rounds; counts come from round 0, so
/// they repeat exactly for a seed.
std::vector<Metric> per_layer(const TracedTotals& t, const Round& first,
                              const SpanReport& spans) {
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : t.setups) v.push_back(s.*field);
    return median(v);
  };
  std::vector<double> mcps;
  for (const SetupTimes& s : t.setups) {
    mcps.push_back(ratio(static_cast<double>(s.golden_cycles) * 1e-6,
                         s.golden));
  }
  const SetupTimes& s0 = t.setups.front();

  double trials = 0, distinct = 0, pruned = 0, skipped = 0, cycles = 0;
  double samples = 0, traced = 0, rollbacks = 0, detections = 0;
  double wasted = 0, recovered = 0;
  for (std::size_t a = 0; a < first.apps.size(); ++a) {
    const AppRound& ar = first.apps[a];
    trials += static_cast<double>(ar.result.trials.size());
    rollbacks += static_cast<double>(ar.result.total_rollbacks);
    wasted += static_cast<double>(ar.result.total_wasted_cycles);
    recovered += static_cast<double>(ar.result.recovered_trials);
    pruned += static_cast<double>(ar.result.pruned_trials);
    for (std::size_t i = 0; i < ar.plan.rep.size(); ++i) {
      if (ar.plan.rep[i] == i) ++distinct;
    }
    for (const auto& tr : ar.result.trials) {
      cycles += static_cast<double>(tr.global_cycles);
      if (tr.pruned) {
        skipped += static_cast<double>(tr.global_cycles - tr.prune_clock);
      }
      detections += static_cast<double>(tr.detections);
      if (!tr.trace.empty()) {
        samples += static_cast<double>(tr.trace.size());
        ++traced;
      }
    }
  }
  const auto counter = [&](const char* name) {
    const auto it = first.metrics.counters.find(name);
    return it == first.metrics.counters.end()
               ? 0.0
               : static_cast<double>(it->second);
  };
  double sum_trial = 0, sum_fit = 0;
  for (const double v : t.trial_ms) sum_trial += v;
  for (const double v : t.fit_ms) sum_fit += v;
  const double tail = tail_percentile(t.trial_ms.size());

  return {
      {"minic.compile_s", setup_median(&SetupTimes::compile), "s"},
      {"passes.instrument_s", setup_median(&SetupTimes::instrument), "s"},
      {"passes.sites", static_cast<double>(s0.sites), "count"},
      {"harness.golden_s", setup_median(&SetupTimes::golden), "s"},
      {"harness.golden_mcycles_per_s", median(mcps), "Mcycles/s"},
      {"harness.ladder_s", setup_median(&SetupTimes::ladder), "s"},
      {"harness.ladder_rungs", static_cast<double>(s0.rungs), "count"},
      {"vm.bytecode_compile_s", setup_median(&SetupTimes::bytecode), "s"},
      {"harness.prune_prints_s", setup_median(&SetupTimes::prune_prints), "s"},
      {"inject.plan_s", median(t.plan_s), "s"},
      {"inject.dedup_ratio", ratio(distinct, trials), "frac"},
      {"harness.execute_s", median(t.execute_s), "s"},
      {"harness.merge_s", median(t.merge_s), "s"},
      {"harness.trial_p50_ms", median(t.trial_ms), "ms"},
      {"harness.trial_tail_ms", percentile(t.trial_ms, tail), "ms"},
      {"harness.trial_tail_pct", tail, "%"},
      {"harness.trial_samples", static_cast<double>(t.trial_ms.size()),
       "count"},
      {"harness.pruned_frac", ratio(pruned, trials), "frac"},
      {"harness.prune_skip_frac", ratio(skipped, cycles), "frac"},
      {"harness.pruned_trial_p50_ms", median(t.pruned_ms), "ms"},
      {"harness.full_trial_p50_ms", median(t.full_ms), "ms"},
      {"model.fit_ms_p50", median(t.fit_ms), "ms"},
      {"model.fit_share", ratio(sum_fit, sum_trial), "frac"},
      {"fpm.trace_samples_mean", ratio(samples, traced), "count"},
      {"model.fps_s", median(t.fps_s), "s"},
      {"recovery.rollbacks", rollbacks, "count"},
      {"recovery.detections", detections, "count"},
      {"recovery.wasted_mcycles", wasted * 1e-6, "Mcycles"},
      {"recovery.recovered_frac", ratio(recovered, trials), "frac"},
      {"obs.events", counter("obs.events"), "count"},
      {"obs.events_dropped", counter("obs.events_dropped"), "count"},
      {"obs.metrics_dump_s", median(t.dump_s), "s"},
      {"bench.trace_overhead_frac", median(t.overhead), "frac"},
      {"bench.span_coverage", spans.coverage, "frac"},
  };
}

int run_traced(const Workload& w, const Args& args, const std::string& meta) {
  SpanLog log;
  Span root(&log, "bench.traced_run");
  TracedTotals t;
  Setup setup;
  for (std::size_t k = 0; k < kSetupReps; ++k) {
    setup = Setup{};
    setup = build_setup(w, &log);
    t.setups.push_back(setup.times);
  }

  TrialCheck check;
  Round first;
  const auto start = std::chrono::steady_clock::now();
  const auto seconds = static_cast<double>(args.seconds);
  for (std::uint64_t r = 0; r < kMinRounds || seconds_since(start) < seconds;
       ++r) {
    const std::uint64_t seed = round_seed(args.seed, r);
    Round plain = run_round(w, setup, seed, &log, false);
    Round traced = run_round(w, setup, seed, &log, true);
    double plan = 0, exec = 0, exec_plain = 0, merge = 0, fps = 0;
    for (std::size_t a = 0; a < traced.apps.size(); ++a) {
      const AppRound& ta = traced.apps[a];
      const AppRound& pa = plain.apps[a];
      plan += ta.plan_s;
      exec += ta.execute_s;
      exec_plain += pa.execute_s;
      merge += ta.merge_s;
      fps += ta.fps_s;
      for (std::size_t i = 0; i < ta.result.trials.size(); ++i) {
        // The traced trials must fold into the plain campaign's result.
        ++check.attempted;
        if (const char* field = first_difference(
                ta.result.trials[i], pa.result.trials[i], true)) {
          ++check.failed;
          check.notes.push_back(setup.apps[a]->app_name() + " trial " +
                                std::to_string(i) + ": traced " + field +
                                " differs from the plain campaign");
        }
        if (ta.plan.rep[i] != i) continue;
        t.trial_ms.push_back(ta.trial_ms[i]);
        (ta.result.trials[i].pruned ? t.pruned_ms : t.full_ms)
            .push_back(ta.trial_ms[i]);
      }
      t.fit_ms.insert(t.fit_ms.end(), ta.fit_ms.begin(), ta.fit_ms.end());
    }
    if (!(plain.metrics == traced.metrics)) {
      ++check.failed;
      check.notes.push_back("traced metrics snapshot differs, round " +
                            std::to_string(r));
    }
    t.plan_s.push_back(plan);
    t.execute_s.push_back(exec);
    t.merge_s.push_back(merge);
    t.fps_s.push_back(fps);
    t.dump_s.push_back(traced.dump_s);
    t.overhead.push_back(ratio(exec - exec_plain, exec_plain));
    if (r == 0) first = std::move(plain);
  }
  check_outputs(w, setup, first, &log, check);
  const std::vector<std::string> self_errors = self_check(w, first);
  root.close();

  const std::vector<SpanRecord> records = log.records();
  const SpanReport spans = analyze(records, root.id());
  std::vector<std::string> app_names;
  for (const auto& h : setup.apps) app_names.push_back(h->app_name());
  write_chrome_trace(args.spans_out, records, app_names, meta);

  std::printf("%s traced: %zu rounds, %zu set-ups, jobs=%zu; %zu spans in "
              "%s\n",
              w.name, t.execute_s.size(), t.setups.size(), kJobs,
              records.size(), args.spans_out.c_str());
  std::printf("  %-32s %8s %10s %10s\n", "self time by span", "calls",
              "self_s", "total_s");
  for (const LayerTime& l : spans.layers) {
    std::printf("  %-32s %8zu %10.4f %10.4f\n", l.name.c_str(), l.calls,
                l.self_s, l.total_s);
  }
  std::printf("  %-32s %8s %10.4f  (%.1f%% inside layer spans)\n",
              "wall", "", spans.wall_s, 100.0 * spans.coverage);
  return report(w, check, self_errors, per_layer(t, first, spans));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string_view> names;
  for (const Workload& w : all_workloads()) names.push_back(w.name);
  Args args;
  try {
    args = parse_args(argc, argv, names);
  } catch (const ArgError& e) {
    std::fprintf(stderr, "evalbench: %s\n%s", e.what(), usage(names).c_str());
    return 2;
  }
  if (args.help) {
    std::fputs(usage(names).c_str(), stdout);
    return 0;
  }
  const HostInfo host = host_info();
  if (!optimized_build(host)) {
    std::fprintf(stderr,
                 "evalbench: refusing to measure a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 host.build_type.c_str());
    return 3;
  }
  const Workload& w = *std::find_if(
      all_workloads().begin(), all_workloads().end(),
      [&](const Workload& x) { return args.workload == x.name; });
  const std::string meta = meta_json(host, w.name, args.seed, kJobs);
  std::printf("meta %s\n", meta.c_str());
  try {
    return args.trace ? run_traced(w, args, meta) : run_plain(w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "evalbench: %s: %s\n", w.name, e.what());
    return 1;
  }
}
