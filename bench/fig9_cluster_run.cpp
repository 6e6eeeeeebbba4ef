// Reproduces paper Figure 9: one deterministic job set executed on the
// Kubernetes substrate under all four scheduling policies.
//   Fig 9a: cluster-utilization profile over time per policy.
//   Fig 9b: replica-count evolution of an xlarge job under elastic.
//
// The run includes every operator-level overhead the simulator ignores
// (scheduling latency, pod startup, reconcile latency, the shrink/expand
// handshake), exactly like the paper's EKS experiment. The experiment is
// the registered "fig9_cluster" scenario (substrate=cluster).

#include <algorithm>
#include <map>

#include "bench/lib/registry.hpp"
#include "common/config.hpp"
#include "common/table.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  // seed, rescale_gap and calibrated are scenario keys of the same name;
  // gap and bucket are not.
  scenario::ScenarioSpec spec = scenario::resolve_scenario(cfg, "fig9_cluster");
  spec.submission_gap_s = cfg.get_double("gap", 90.0);
  const double bucket = cfg.get_double("bucket", 60.0);
  bench::check_flag(bucket > 0.0, cfg, "bucket", "a width > 0 seconds");

  const auto mix = scenario::make_mix(spec, spec.seed);
  const auto results = scenario::run_policies(spec, mix);

  double horizon = 0.0;
  for (const auto& [mode, res] : results) {
    horizon = std::max(horizon, res.metrics.total_time_s);
  }
  Table& profile = rep.add_table(
      "fig9a_util_profile",
      "Figure 9a: cluster utilization profiles (bucketed averages)",
      {"t_s", "min_replicas", "max_replicas", "moldable", "elastic"});
  for (double t = 0.0; t < horizon; t += bucket) {
    auto cell = [&](PolicyMode mode) {
      return format_double(
          results.at(mode).trace.average("util", t, t + bucket), 3);
    };
    profile.add_row({format_double(t, 0), cell(PolicyMode::kRigidMin),
                     cell(PolicyMode::kRigidMax), cell(PolicyMode::kMoldable),
                     cell(PolicyMode::kElastic)});
  }

  // Fig 9b: the xlarge job that rescaled the most under elastic; if no
  // xlarge rescaled in this mix, fall back to the most-rescaled job overall.
  const auto& elastic_run = results.at(PolicyMode::kElastic);
  int best_job = -1;
  std::size_t best_changes = 0;
  std::string best_class = "xlarge";
  for (const auto& sj : mix) {
    if (sj.job_class != elastic::JobClass::kXLarge) continue;
    const auto& series = elastic_run.trace.series(
        "job." + std::to_string(sj.spec.id) + ".replicas");
    if (series.size() >= best_changes) {
      best_changes = series.size();
      best_job = sj.spec.id;
    }
  }
  if (best_changes < 3) {
    for (const auto& sj : mix) {
      const auto& series = elastic_run.trace.series(
          "job." + std::to_string(sj.spec.id) + ".replicas");
      if (series.size() > best_changes) {
        best_changes = series.size();
        best_job = sj.spec.id;
        best_class = elastic::to_string(sj.job_class);
      }
    }
  }
  if (best_job >= 0) {
    Table& evolution = rep.add_table(
        "fig9b_replica_evolution",
        "Figure 9b: replica evolution of " + best_class + " job " +
            std::to_string(best_job) + " (elastic)",
        {"timestamp_s", "replicas"});
    for (const auto& [t, v] :
         elastic_run.trace.series("job." + std::to_string(best_job) + ".replicas")) {
      evolution.add_row({format_double(t, 1), format_double(v, 0)});
    }
  } else {
    rep.note("(no xlarge job in this mix; rerun with another seed)");
  }

  Table& metrics = rep.add_table(
      "fig9_policy_metrics",
      "Per-policy metrics for this run (the 'Actual' flavour)",
      {"scheduler", "total_time_s", "utilization", "w_mean_response_s",
       "w_mean_completion_s", "rescales"});
  for (const PolicyMode mode : spec.policies) {
    const auto& m = results.at(mode).metrics;
    metrics.add_row({elastic::to_string(mode), format_double(m.total_time_s, 1),
                     format_double(m.utilization, 4),
                     format_double(m.weighted_response_s, 2),
                     format_double(m.weighted_completion_s, 2),
                     std::to_string(results.at(mode).rescale_count)});
  }
}

const bench::RegisterBench kReg{{
    "fig9_cluster_run",
    "Figure 9: one job set on the k8s substrate under all four policies",
    {{"seed", "2025", "job mix RNG seed"},
     {"gap", "90", "submission gap in seconds"},
     {"rescale_gap", "180", "T_rescale_gap in seconds"},
     {"bucket", "60", "utilization-profile bucket width in seconds"},
     {"calibrated", "true", "use minicharm-calibrated step-time curves"}},
    {},
    run}};

}  // namespace
