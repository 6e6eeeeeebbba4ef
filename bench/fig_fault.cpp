// Beyond-paper figure: policies under failure injection. Four panels:
//   a) the fixed crash/eviction schedule (fault_recovery): every §4.3
//      metric plus the recovery accounting, per policy;
//   b) scheduler metrics vs crash MTBF with a fixed checkpoint cadence and
//      a prun-style failure budget (fault_churn);
//   c) the checkpoint-period tradeoff at a fixed MTBF: short periods pay
//      checkpoint overhead, long periods pay lost work;
//   d) load-balancer ablation under a crash chain on the AMR workload
//      (fault_lb_ablation): recovery re-placement quality per LB strategy;
//   e) rack-level correlated loss (fault_correlated): every policy under
//      two domain crashes, with the correlated-failure accounting;
//   e2) amplification: the same policies under an independent single-node
//      loss at the identical instants — the completion ratio says whether
//      elastic re-placement absorbs or amplifies the correlated burst;
//   f) recovery storm (fault_storm): the elastic policy as restore
//      bandwidth shrinks and concurrent restores start queueing.
//
// The experiments are the registered fault scenarios; this driver overlays
// flags and renders tables.

#include "bench/lib/registry.hpp"
#include "bench/lib/scenario_tables.hpp"
#include "common/config.hpp"
#include "scenario/registry.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

std::string join_values_text(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += '/';
    out += format_double(v, 0);
  }
  return out;
}

void run(bench::Reporter& rep, const Config& cfg) {
  const int threads = cfg.get_int("threads", 1);
  // The columns the per-policy and per-point panels share.
  using M = elastic::RunMetrics;
  const bench::MetricColumn util{"utilization", &M::utilization, 3};
  const bench::MetricColumn completion{"completion_s",
                                       &M::weighted_completion_s, 2};
  const bench::MetricColumn recovery_s{"recovery_s", &M::recovery_time_s, 2};
  const bench::MetricColumn lost_work{"lost_work_s", &M::lost_work_s, 2};
  const bench::MetricColumn goodput{"goodput", &M::goodput, 4};

  // ---- panel a: fixed crash/eviction schedule, per policy ----
  const scenario::ScenarioSpec recovery =
      scenario::resolve_scenario(cfg, "fault_recovery");
  bench::add_policy_row_table(
      rep, "fig_fault_a_recovery",
      "Fault panel a: fixed crash/eviction schedule (" +
          join_values_text(recovery.faults.crash_times) + " s crashes, " +
          join_values_text(recovery.faults.evict_times) +
          " s eviction, checkpoints every " +
          format_double(recovery.faults.checkpoint_period_s, 0) + " s)",
      scenario::compare_policies(recovery, threads), recovery.policies,
      {util, {"total_s", &M::total_time_s, 1}, completion, recovery_s,
       lost_work, goodput, {"jobs_failed", &M::jobs_failed, 3}});

  // ---- panel b: MTBF sweep under a failure budget ----
  const scenario::ScenarioSpec churn =
      scenario::resolve_scenario(cfg, "fault_churn");
  bench::add_policy_tables(
      rep,
      {{"fig_fault_b1_utilization", &M::utilization, 4,
        "Fault panel b: cluster utilization"},
       {"fig_fault_b2_completion", &M::weighted_completion_s, 4,
        "Fault panel b: weighted mean completion time (s)"},
       {"fig_fault_b3_goodput", &M::goodput, 4,
        "Fault panel b: mean per-job goodput"},
       {"fig_fault_b4_jobs_failed", &M::jobs_failed, 4,
        "Fault panel b: jobs killed by the failure budget"}},
      " vs crash MTBF", "mtbf_s", churn.axis,
      scenario::run_sweep(churn, threads).points, bench::kFigurePolicies);

  // ---- panel c: checkpoint-period tradeoff at fixed MTBF ----
  scenario::ScenarioSpec period = churn;
  period.name = "custom";
  period.faults.crash_mtbf_s = 1200.0;
  period.faults.checkpoint_period_s = 0.0;  // the axis supplies it per point
  period.axis = scenario::SweepAxis::kCheckpointPeriod;
  period.axis_values = {75, 150, 300, 600, 1200};
  bench::add_point_table(
      rep, "fig_fault_c_checkpoint_period",
      "Fault panel c: elastic policy vs checkpoint period at MTBF " +
          format_double(period.faults.crash_mtbf_s, 0) + " s",
      "period_s", period.axis, scenario::run_sweep(period, threads).points,
      PolicyMode::kElastic,
      {util, completion, recovery_s, lost_work, goodput});

  // ---- panel d: LB ablation under a crash chain (AMR workload) ----
  const scenario::ScenarioSpec ablation =
      scenario::resolve_scenario(cfg, "fault_lb_ablation");
  bench::add_point_table(
      rep, "fig_fault_d_lb_ablation",
      "Fault panel d: elastic policy per runtime LB strategy, crash MTBF " +
          format_double(ablation.faults.crash_mtbf_s, 0) + " s",
      "strategy", ablation.axis, scenario::run_sweep(ablation, threads).points,
      PolicyMode::kElastic,
      {util, completion, recovery_s, lost_work, goodput,
       {"lb_post_ratio", &M::lb_post_ratio, 3}});

  // ---- panel e: rack-level correlated loss, per policy ----
  const scenario::ScenarioSpec correlated =
      scenario::resolve_scenario(cfg, "fault_correlated");
  const auto correlated_metrics =
      scenario::compare_policies(correlated, threads);
  bench::add_policy_row_table(
      rep, "fig_fault_e_correlated",
      "Fault panel e: rack-level correlated loss (domains " +
          std::to_string(correlated.faults.domain_sizes.size()) +
          " x 16 slots, domain crashes at 500/1300 s)",
      correlated_metrics, correlated.policies,
      {util, completion, recovery_s, lost_work, goodput,
       {"correlated_failures", &M::correlated_failures, 3},
       {"node_failures", &M::failures, 3}});

  // ---- panel e2: correlated vs independent loss at the same instants ----
  // The independent plan replaces each domain crash with a single-node
  // crash at the identical timestamp; completion_ratio > 1 means the
  // correlated burst costs more than the sum of its independent parts.
  scenario::ScenarioSpec independent = correlated;
  independent.name = "custom";
  independent.faults.domain_sizes.clear();
  independent.faults.domain_crashes.clear();
  for (const auto& crash : correlated.faults.domain_crashes) {
    independent.faults.crash_times.push_back(crash.time_s);
  }
  const auto independent_metrics =
      scenario::compare_policies(independent, threads);
  Table& amp_table = rep.add_table(
      "fig_fault_e2_amplification",
      "Fault panel e2: correlated domain loss vs independent single-node "
      "loss at the same instants",
      {"policy", "completion_corr_s", "completion_indep_s",
       "completion_ratio", "goodput_corr", "goodput_indep"});
  for (const auto mode : correlated.policies) {
    const auto& corr = correlated_metrics.at(mode);
    const auto& indep = independent_metrics.at(mode);
    amp_table.add_row(
        {elastic::to_string(mode),
         format_double(corr.weighted_completion_s, 2),
         format_double(indep.weighted_completion_s, 2),
         format_double(corr.weighted_completion_s /
                           indep.weighted_completion_s, 4),
         format_double(corr.goodput, 4), format_double(indep.goodput, 4)});
  }

  // ---- panel f: recovery storm vs restore bandwidth ----
  scenario::ScenarioSpec storm = scenario::resolve_scenario(cfg, "fault_storm");
  storm.name = "custom";
  storm.policies = {PolicyMode::kElastic};
  std::vector<scenario::SweepPoint> storm_points;
  for (const double bw : {0.0, 8.0, 4.0, 2.0, 1.0}) {
    storm.faults.restore_bandwidth = bw;
    storm_points.push_back({bw, scenario::compare_policies(storm, threads)});
  }
  bench::add_point_table(
      rep, "fig_fault_f_storm",
      "Fault panel f: elastic policy as the restore path saturates (32-slot "
      "domain crash at 600 s; bandwidth 0 = unlimited)",
      "restore_bw", scenario::SweepAxis::kNone, storm_points,
      PolicyMode::kElastic,
      {completion, recovery_s,
       {"storm_peak_restorers", &M::storm_peak_restorers, 2},
       {"storm_delay_s", &M::storm_delay_s, 2}, goodput});

  std::string note = "(";
  note += std::to_string(recovery.repeats);
  note += " random mixes per point, seed ";
  note += std::to_string(recovery.seed);
  note += "; fault plans are deterministic, so both substrates replay the "
          "identical failure sequence)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig_fault",
    "Failure injection: recovery accounting, MTBF sweep, checkpoint-period "
    "tradeoff, LB ablation under crashes, correlated domain loss, recovery "
    "storms",
    {{"repeats", "20", "random job mixes per sweep point"},
     {"seed", "2025", "base RNG seed"}},
    {{"repeats", "5"}},
    run}};

}  // namespace
