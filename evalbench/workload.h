#pragma once

// The benchmark's four campaign workloads. Each regenerates a fixed slice of
// the paper's evaluation over apps::paper_apps() with the library defaults
// (warm start, bytecode tier, prune and dedup on) and kJobs workers; they
// differ in which layer does most of the work (README.md has the table).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fprop/harness/harness.h"
#include "fprop/obs/metrics.h"
#include "spans.h"

namespace evalbench {

/// Worker threads of every workload: exercises the pool and stays under the
/// 4 vCPUs of the reference host; wider pools measured no steadier.
inline constexpr std::size_t kJobs = 2;

struct Workload {
  const char* name;
  bool traces;    ///< Fig. 7 + Table 2: keep every CML(t) trace and fit FPS
  bool recovery;  ///< §5 closed loop under the FpsModel rollback policy
  bool metrics;   ///< fresh MetricsRegistry per round, dumped as JSON
  std::size_t trials_per_app;  ///< per round
};

const std::vector<Workload>& all_workloads();

/// Set-up cost summed over apps, in seconds (counts where named).
struct SetupTimes {
  double total = 0.0;  ///< setup_s: harness builds plus the lazy builds
  double compile = 0.0;
  double instrument = 0.0;
  double golden = 0.0;  ///< constructor minus the two above (traced only)
  double ladder = 0.0;
  double bytecode = 0.0;
  double prune_prints = 0.0;
  std::uint64_t sites = 0;
  std::uint64_t rungs = 0;
  std::uint64_t golden_cycles = 0;
};

struct Setup {
  std::vector<std::unique_ptr<fprop::harness::AppHarness>> apps;
  SetupTimes times;
};

/// Builds every app's harness plus the lazy structures the workload's
/// campaign would build on first use. With a span log it also times the
/// frontend and the passes on their own (the constructor runs both
/// internally), so the per-layer split can be derived.
Setup build_setup(const Workload& w, SpanLog* log);

struct AppRound {
  fprop::harness::CampaignPlan plan;
  fprop::harness::CampaignResult result;
  double plan_s = 0.0;
  double execute_s = 0.0;
  double merge_s = 0.0;
  double fps_s = 0.0;  ///< aggregate_fps + cross_validate_linear
  /// Traced execution only: wall ms of each run_trial (0 for dedup copies)
  /// and of model_trace re-run on each returned trace.
  std::vector<double> trial_ms;
  std::vector<double> fit_ms;
};

/// One regeneration of the workload's artifact at trials_per_app per app.
struct Round {
  std::vector<AppRound> apps;
  double eval_s = 0.0;  ///< first plan_campaign to the last needed result
  double dump_s = 0.0;  ///< metrics snapshot + metrics_json
  fprop::obs::MetricsSnapshot metrics;
  std::size_t trials() const;
};

/// Runs one round. `traced_trials` drives the plans through run_trial on
/// kJobs threads with a span per call (TrialOptions set as the library's
/// campaign worker sets them) instead of run_campaign_range, then re-runs
/// model_trace on each kept trace under its own span.
Round run_round(const Workload& w, const Setup& setup, std::uint64_t seed,
                SpanLog* log, bool traced_trials);

/// Name of the first field where `a` and `b` differ, or nullptr. The
/// provenance fields (pruned, prune_clock, dedup_count) are compared only
/// when asked: they say how a result was obtained, not what it is.
const char* first_difference(const fprop::harness::TrialResult& a,
                             const fprop::harness::TrialResult& b,
                             bool provenance);

struct TrialCheck {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;  ///< one line per failure
  std::size_t pruned_rerun = 0;    ///< re-executed slots that were pruned
};

/// Output check: re-executes a sample of every app's plans under the
/// reference configuration (one thread, cold start, interp tier, no
/// pruning) and compares each with the round's slot. The sample holds the
/// app's first pruned and first full representative where there are any.
void check_outputs(const Workload& w, const Setup& setup, const Round& round,
                   SpanLog* log, TrialCheck& check);

/// Asserts the round exercised the layer its workload exists for; returns
/// one message per violated expectation.
std::vector<std::string> self_check(const Workload& w, const Round& round);

}  // namespace evalbench
