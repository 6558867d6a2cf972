#include "workload.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <optional>
#include <thread>

#include "fprop/apps/registry.h"
#include "fprop/model/propagation_model.h"
#include "fprop/obs/export.h"
#include "fprop/passes/passes.h"

namespace evalbench {

namespace h = fprop::harness;

namespace {

/// Plans per app the output check re-executes.
constexpr std::size_t kCheckPerApp = 2;

/// Global cycles between CML(t) samples on fig7_traces (the library default
/// is 512). model_trace's knee search is quadratic in the samples after
/// onset, so at 512 one early-fault minife trial runs 8.6 s, 26x the median
/// one, and five 15-s runs of five seeds spread 33%. At 2048 the fit is
/// still a third of trial time, and an O(n) fit would still show.
constexpr std::uint64_t kTraceSamplePeriod = 2048;

/// Warm-started trials restore ladder rungs; the recorder that metrics
/// attach forces cold starts, so that workload never builds the ladder.
bool builds_ladder(const Workload& w) { return !w.metrics; }
/// Pruning needs a recorder-free, trace-free trial.
bool prunes(const Workload& w) { return !w.metrics && !w.traces; }

/// Same rule as model::model_trace: a trace is fittable when it has at least
/// three samples from the one before the first contaminated sample.
bool fit_expected(const std::vector<fprop::fpm::TraceSample>& trace) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].cml > 0) return trace.size() - (i > 0 ? i - 1 : 0) >= 3;
  }
  return false;
}

/// Runs `worker` on `jobs` threads and rethrows the first exception after
/// all have joined; `drain` makes the survivors wind down once one throws.
template <typename Worker, typename Drain>
void run_workers(std::size_t jobs, const Worker& worker, const Drain& drain) {
  std::vector<std::exception_ptr> errors(jobs);
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t w = 0; w < jobs; ++w) {
    pool.emplace_back([&, w] {
      try {
        worker();
      } catch (...) {
        errors[w] = std::current_exception();
        drain();
      }
    });
  }
  for (auto& t : pool) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// The trial loop of the library's campaign worker, with a span around each
/// run_trial: same chunked dispatch, same TrialOptions (recorder and metric
/// handles included), same trace retention.
void execute_traced(const h::AppHarness& harness, const h::CampaignConfig& cc,
                    const h::CampaignPlan& plan,
                    std::vector<h::TrialResult>& slots,
                    std::vector<double>& trial_ms, SpanLog* log, int app,
                    std::uint64_t parent) {
  std::optional<h::TrialMetricHandles> handles;
  if (cc.metrics != nullptr) handles.emplace(*cc.metrics);
  const std::size_t n = plan.plans.size();
  const std::size_t jobs = std::clamp<std::size_t>(cc.jobs, 1, n);
  const std::size_t chunk = std::max<std::size_t>(1, n / (jobs * 8));
  std::atomic<std::size_t> next{0};
  trial_ms.assign(n, 0.0);

  const auto worker = [&] {
    std::optional<fprop::obs::TrialRecorder> recorder;
    if (cc.metrics != nullptr) recorder.emplace(cc.trace_capacity);
    h::TrialOptions opts;
    opts.capture_trace = cc.capture_traces;
    opts.warm_start = cc.warm_start;
    opts.metrics = handles.has_value() ? &*handles : nullptr;
    opts.recorder = recorder.has_value() ? &*recorder : nullptr;
    opts.exec_tier = cc.exec_tier;
    opts.prune = cc.prune && !recorder.has_value();
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk);
      if (begin >= n) return;
      for (std::size_t i = begin; i < std::min(begin + chunk, n); ++i) {
        if (plan.rep[i] != i) continue;
        if (recorder.has_value()) recorder->clear();
        Span span(log, "harness.run_trial", app, static_cast<std::int64_t>(i),
                  parent);
        slots[i] = harness.run_trial(plan.plans[i], opts);
        trial_ms[i] = span.close() * 1e3;
        if (!cc.capture_traces || i >= cc.max_kept_traces) {
          slots[i].trace.clear();
          slots[i].trace.shrink_to_fit();
        }
      }
    }
  };

  run_workers(jobs, worker, [&] { next.store(n); });
}

/// Table 2 for one app: the FPS factor over the campaign's slopes (per
/// mega-cycle) and the linear model's cross-validation on every kept trace
/// with at least ten samples from onset, as bench/table2_fps does.
void fit_fps(AppRound& ar, SpanLog* log, int app) {
  Span all(log, "bench.fps_fit", app);
  std::vector<double> slopes_mc;
  slopes_mc.reserve(ar.result.slopes.size());
  for (const double s : ar.result.slopes) slopes_mc.push_back(s * 1e6);
  {
    Span s(log, "model.aggregate_fps", app);
    (void)fprop::model::aggregate_fps(slopes_mc);
  }
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::size_t i = 0; i < ar.result.trials.size(); ++i) {
    xs.clear();
    ys.clear();
    bool past_onset = false;
    for (const auto& s : ar.result.trials[i].trace) {
      past_onset = past_onset || s.cml > 0;
      if (!past_onset) continue;
      xs.push_back(static_cast<double>(s.cycle));
      ys.push_back(static_cast<double>(s.cml));
    }
    if (xs.size() < 10) continue;
    Span s(log, "model.cross_validate_linear", app,
           static_cast<std::int64_t>(i));
    (void)fprop::model::cross_validate_linear(xs, ys);
  }
  ar.fps_s = all.close();
}

/// The slots the output check re-executes: the app's first pruned
/// representative and its first full one, so the prune synthesis path is
/// checked wherever it fired, topped up in index order.
std::vector<std::size_t> check_sample(const AppRound& ar) {
  const auto& trials = ar.result.trials;
  std::vector<std::size_t> picks;
  for (const bool pruned : {true, false}) {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (ar.plan.rep[i] == i && trials[i].pruned == pruned) {
        picks.push_back(i);
        break;
      }
    }
  }
  for (std::size_t i = 0; i < trials.size() && picks.size() < kCheckPerApp;
       ++i) {
    if (std::find(picks.begin(), picks.end(), i) == picks.end()) {
      picks.push_back(i);
    }
  }
  return picks;
}

h::ExperimentConfig experiment_config(const Workload& w) {
  h::ExperimentConfig cfg;
  if (w.traces) cfg.global_sample_period = kTraceSamplePeriod;
  if (w.recovery) {
    // recovery_campaign's fps-model row.
    cfg.recovery.enabled = true;
    cfg.recovery.detector_interval = 0;  // golden / 16
    cfg.recovery.policy = fprop::model::RollbackPolicy::FpsModel;
    cfg.recovery.fps = 1e-4;
    cfg.recovery.cml_threshold = 50.0;
  }
  return cfg;
}

h::CampaignConfig campaign_config(const Workload& w, std::uint64_t seed) {
  h::CampaignConfig cc;
  cc.trials = w.trials_per_app;
  cc.seed = seed;
  cc.jobs = kJobs;
  cc.capture_traces = w.traces;
  if (w.traces) cc.max_kept_traces = w.trials_per_app;  // as fig7_propagation
  return cc;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      {"fig6_outcomes", false, false, false, 40},
      {"fig7_traces", true, false, false, 8},
      {"recovery_fps", false, true, false, 60},
      {"fig6_metrics", false, false, true, 6},
  };
  return kAll;
}

Setup build_setup(const Workload& w, SpanLog* log) {
  Setup setup;
  SetupTimes& t = setup.times;
  const h::ExperimentConfig cfg = experiment_config(w);
  const auto& specs = fprop::apps::paper_apps();
  double ctor_s = 0.0;
  for (std::size_t a = 0; a < specs.size(); ++a) {
    const int app = static_cast<int>(a);
    if (log != nullptr) {
      Span c(log, "apps.compile_app", app);
      fprop::ir::Module m = fprop::apps::compile_app(specs[a], cfg.overrides);
      t.compile += c.close();
      Span i(log, "passes.instrument_module", app);
      t.sites += fprop::passes::instrument_module(m, cfg.targets).size();
      t.instrument += i.close();
    }
    Span c(log, "harness.AppHarness", app);
    auto harness = std::make_unique<h::AppHarness>(specs[a], cfg);
    ctor_s += c.close();
    t.golden_cycles += harness->golden().global_cycles;
    if (builds_ladder(w)) {
      Span s(log, "harness.snapshot_ladder", app);
      t.rungs += harness->snapshot_ladder().size();
      t.ladder += s.close();
    }
    {
      Span s(log, "harness.bytecode", app);
      (void)harness->bytecode();
      t.bytecode += s.close();
    }
    if (prunes(w)) {
      Span s(log, "harness.prune_prints", app);
      (void)harness->prune_prints();
      t.prune_prints += s.close();
    }
    setup.apps.push_back(std::move(harness));
  }
  t.golden = ctor_s - t.compile - t.instrument;
  t.total = ctor_s + t.ladder + t.bytecode + t.prune_prints;
  return setup;
}

std::size_t Round::trials() const {
  std::size_t n = 0;
  for (const AppRound& ar : apps) n += ar.result.trials.size();
  return n;
}

Round run_round(const Workload& w, const Setup& setup, std::uint64_t seed,
                SpanLog* log, bool traced_trials) {
  Round round;
  std::unique_ptr<fprop::obs::MetricsRegistry> registry;
  if (w.metrics) registry = std::make_unique<fprop::obs::MetricsRegistry>();
  Span eval(log, traced_trials ? "bench.traced_round" : "bench.round");
  for (std::size_t a = 0; a < setup.apps.size(); ++a) {
    const int app = static_cast<int>(a);
    const h::AppHarness& harness = *setup.apps[a];
    h::CampaignConfig cc = campaign_config(w, seed);
    cc.metrics = registry.get();
    AppRound& ar = round.apps.emplace_back();
    {
      Span s(log, "harness.plan_campaign", app);
      ar.plan = h::plan_campaign(harness, cc);
      ar.plan_s = s.close();
    }
    std::vector<h::TrialResult> slots(cc.trials);
    if (traced_trials) {
      Span s(log, "bench.trial_pool", app);
      execute_traced(harness, cc, ar.plan, slots, ar.trial_ms, log, app,
                     s.id());
      ar.execute_s = s.close();
    } else {
      Span s(log, "harness.run_campaign_range", app);
      h::run_campaign_range(harness, cc, ar.plan, 0, cc.trials, slots);
      ar.execute_s = s.close();
    }
    {
      Span s(log, "harness.merge_campaign", app);
      ar.result = h::merge_campaign(harness, cc, ar.plan, std::move(slots));
      ar.merge_s = s.close();
    }
    if (w.traces) fit_fps(ar, log, app);
  }
  if (registry != nullptr) {
    Span all(log, "bench.metrics_dump");
    {
      Span s(log, "obs.snapshot");
      round.metrics = registry->snapshot();
    }
    Span s(log, "obs.metrics_json");
    (void)fprop::obs::metrics_json(round.metrics);
    s.close();
    round.dump_s = all.close();
  }
  round.eval_s = eval.close();

  // Measurement only, after eval_s: run_trial fits each trace internally,
  // where no span can reach, so time the same fit again on its output, on
  // kJobs threads like the trials.
  if (traced_trials && w.traces) {
    for (std::size_t a = 0; a < round.apps.size(); ++a) {
      AppRound& ar = round.apps[a];
      const auto& trials = ar.result.trials;
      Span pool(log, "bench.refit_pool", static_cast<int>(a));
      std::vector<double> fit_ms(trials.size(), -1.0);
      std::atomic<std::size_t> next{0};
      run_workers(
          std::clamp<std::size_t>(kJobs, 1, trials.size()),
          [&] {
            for (std::size_t i; (i = next.fetch_add(1)) < trials.size();) {
              if (trials[i].trace.empty()) continue;
              Span s(log, "model.model_trace", static_cast<int>(a),
                     static_cast<std::int64_t>(i), pool.id());
              (void)fprop::model::model_trace(trials[i].trace);
              fit_ms[i] = s.close() * 1e3;
            }
          },
          [&] { next.store(trials.size()); });
      for (const double ms : fit_ms) {
        if (ms >= 0.0) ar.fit_ms.push_back(ms);
      }
    }
  }
  return round;
}

const char* first_difference(const h::TrialResult& a, const h::TrialResult& b,
                             bool provenance) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  const auto& x = a.injection;
  const auto& y = b.injection;
  if (a.outcome != b.outcome) return "outcome";
  if (a.trap != b.trap) return "trap";
  if (a.injected != b.injected) return "injected";
  if (x.rank != y.rank || x.site_id != y.site_id ||
      x.dyn_index != y.dyn_index || x.bit != y.bit || x.cycle != y.cycle ||
      x.before != y.before || x.after != y.after) {
    return "injection";
  }
  if (a.msg_injected != b.msg_injected) return "msg_injected";
  if (a.headers_quarantined != b.headers_quarantined ||
      a.header_records_quarantined != b.header_records_quarantined) {
    return "headers_quarantined";
  }
  if (a.fault_pair_min_gap != b.fault_pair_min_gap) return "fault_pair_min_gap";
  if (a.total_cml_final != b.total_cml_final) return "total_cml_final";
  if (a.total_cml_peak != b.total_cml_peak) return "total_cml_peak";
  if (!same(a.contaminated_pct, b.contaminated_pct)) return "contaminated_pct";
  if (a.contaminated_ranks != b.contaminated_ranks) return "contaminated_ranks";
  if (a.reported_iters != b.reported_iters) return "reported_iters";
  if (a.global_cycles != b.global_cycles) return "global_cycles";
  if (!std::equal(a.trace.begin(), a.trace.end(), b.trace.begin(),
                  b.trace.end(), [](const auto& s, const auto& t) {
                    return s.cycle == t.cycle && s.cml == t.cml;
                  })) {
    return "trace";
  }
  if (a.rank_first_contaminated != b.rank_first_contaminated) {
    return "rank_first_contaminated";
  }
  if (!same(a.slope_a, b.slope_a) || !same(a.slope_b, b.slope_b) ||
      a.slope_usable != b.slope_usable) {
    return "slope";
  }
  if (a.recovered != b.recovered || a.rollbacks != b.rollbacks ||
      a.detections != b.detections || a.wasted_cycles != b.wasted_cycles ||
      a.residual_cml != b.residual_cml ||
      a.recovery_gave_up != b.recovery_gave_up ||
      a.first_detection_clock != b.first_detection_clock) {
    return "recovery";
  }
  if (provenance && (a.pruned != b.pruned || a.prune_clock != b.prune_clock ||
                     a.dedup_count != b.dedup_count)) {
    return "provenance";
  }
  return nullptr;
}

void check_outputs(const Workload& w, const Setup& setup, const Round& round,
                   SpanLog* log, TrialCheck& check) {
  Span all(log, "bench.output_check");
  h::TrialOptions reference;
  reference.capture_trace = w.traces;
  reference.warm_start = false;
  reference.exec_tier = fprop::vm::ExecTier::Interp;
  reference.prune = false;
  for (std::size_t a = 0; a < round.apps.size(); ++a) {
    const AppRound& ar = round.apps[a];
    for (const std::size_t i : check_sample(ar)) {
      const std::string where =
          setup.apps[a]->app_name() + " trial " + std::to_string(i);
      ++check.attempted;
      if (ar.result.trials[i].pruned) ++check.pruned_rerun;
      try {
        Span s(log, "harness.run_trial", static_cast<int>(a),
               static_cast<std::int64_t>(i));
        const h::TrialResult want =
            setup.apps[a]->run_trial(ar.plan.plans[i], reference);
        s.close();
        if (const char* field =
                first_difference(ar.result.trials[i], want, false)) {
          ++check.failed;
          check.notes.push_back(where + ": " + field +
                                " differs from the reference run");
        }
      } catch (const std::exception& e) {
        ++check.failed;
        check.notes.push_back(where + ": reference run threw: " + e.what());
      }
    }
  }
}

std::vector<std::string> self_check(const Workload& w, const Round& round) {
  std::size_t pruned = 0;
  std::size_t rollbacks = 0;
  std::size_t unfitted = 0;
  std::size_t traceless = 0;
  for (const AppRound& ar : round.apps) {
    pruned += ar.result.pruned_trials;
    rollbacks += ar.result.total_rollbacks;
    if (!w.traces) continue;
    for (const h::TrialResult& t : ar.result.trials) {
      if (t.total_cml_peak > 0 && t.trace.empty()) ++traceless;
      if (fit_expected(t.trace) && !t.slope_usable) ++unfitted;
    }
  }
  std::vector<std::string> errors;
  if (prunes(w) && pruned == 0) {
    errors.push_back("no trial was pruned; the prune layer went unmeasured");
  }
  if (w.traces && pruned != 0) {
    errors.push_back(std::to_string(pruned) +
                     " trials pruned under trace capture");
  }
  if (w.traces && traceless + unfitted != 0) {
    errors.push_back(std::to_string(traceless) +
                     " contaminated trials lost their trace and " +
                     std::to_string(unfitted) +
                     " contaminated traces were not fitted");
  }
  if (w.recovery && rollbacks == 0) {
    errors.push_back("no rollback; the recovery layer went unmeasured");
  }
  if (w.metrics) {
    const auto it = round.metrics.counters.find("obs.events");
    if (it == round.metrics.counters.end() || it->second == 0) {
      errors.push_back("no events recorded; the obs layer went unmeasured");
    }
  }
  return errors;
}

}  // namespace evalbench
