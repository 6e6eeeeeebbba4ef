#include "scenario/registry.hpp"

#include <utility>

#include "common/error.hpp"

namespace ehpc::scenario {

using elastic::PolicyMode;

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  EHPC_EXPECTS(!spec.name.empty());
  spec.validate();
  if (find(spec.name) != nullptr) {
    throw ConfigError("scenario '" + spec.name + "' already registered");
  }
  scenarios_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& spec : scenarios_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

const ScenarioSpec& ScenarioRegistry::require(const std::string& name) const {
  if (const ScenarioSpec* spec = find(name)) return *spec;
  std::string msg = "unknown scenario '" + name + "'; known scenarios:";
  for (const auto& spec : scenarios_) msg += " " + spec.name;
  throw ConfigError(msg);
}

ScenarioRegistry::ScenarioRegistry() {
  // The paper's experiments. Sweep values match the figures; benches apply
  // their flags (repeats=, seed=, ...) on top through spec_from_config.
  ScenarioSpec policy_compare;
  policy_compare.name = "policy_compare";
  policy_compare.description =
      "Four policies averaged over random mixes on the performance simulator "
      "(paper §4.3.1 setup)";
  add(policy_compare);

  ScenarioSpec fig7;
  fig7.name = "fig7_submission_gap";
  fig7.description =
      "Figure 7: scheduler metrics vs job submission gap, T_rescale_gap 180 s";
  fig7.rescale_gap_s = 180.0;
  fig7.axis = SweepAxis::kSubmissionGap;
  fig7.axis_values = {0, 30, 60, 90, 120, 180, 240, 300};
  add(fig7);

  ScenarioSpec fig8;
  fig8.name = "fig8_rescale_gap";
  fig8.description =
      "Figure 8: scheduler metrics vs T_rescale_gap at a fixed submission gap "
      "(elastic converges to moldable)";
  fig8.submission_gap_s = 90.0;
  fig8.axis = SweepAxis::kRescaleGap;
  fig8.axis_values = {0, 60, 120, 180, 300, 600, 900, 1200};
  add(fig8);

  ScenarioSpec table1;
  table1.name = "table1";
  table1.description =
      "Table 1: one deterministic mix; the bench runs it on both substrates "
      "for the Simulation and Actual columns";
  table1.submission_gap_s = 90.0;
  table1.rescale_gap_s = 180.0;
  table1.repeats = 1;
  add(table1);

  ScenarioSpec fig9;
  fig9.name = "fig9_cluster";
  fig9.description =
      "Figure 9: one job set on the Kubernetes substrate under all four "
      "policies, with every operator-level overhead";
  fig9.substrate = Substrate::kCluster;
  fig9.submission_gap_s = 90.0;
  fig9.rescale_gap_s = 180.0;
  fig9.repeats = 1;
  add(fig9);

  ScenarioSpec quickstart;
  quickstart.name = "quickstart";
  quickstart.description =
      "Three-job shrink demo on the Kubernetes substrate under the elastic "
      "policy (examples/quickstart)";
  quickstart.substrate = Substrate::kCluster;
  quickstart.num_jobs = 3;
  quickstart.rescale_gap_s = 30.0;
  quickstart.policies = {PolicyMode::kElastic};
  quickstart.repeats = 1;
  add(quickstart);

  ScenarioSpec burst;
  burst.name = "burst_arrival";
  burst.description =
      "Stress scenario beyond the paper: 32 jobs submitted back-to-back "
      "(gap 0) to maximise contention and rescale churn";
  burst.num_jobs = 32;
  burst.submission_gap_s = 0.0;
  burst.repeats = 20;
  add(burst);

  // Irregular-workload scenarios: jobs modeled from the AMR app, whose
  // refinement front produces heavy, time-varying load imbalance (ROADMAP
  // "Scenario diversity"). Each runs on either substrate via substrate=.
  ScenarioSpec amr_imbalance;
  amr_imbalance.name = "amr_imbalance";
  amr_imbalance.description =
      "Scheduler metrics vs AMR refinement rate: workload models are "
      "re-calibrated per point, so imbalance grows along the axis";
  amr_imbalance.app = "amr";
  amr_imbalance.axis = SweepAxis::kRefineRate;
  amr_imbalance.axis_values = {0.0, 0.06, 0.12, 0.24};
  amr_imbalance.repeats = 20;
  add(amr_imbalance);

  ScenarioSpec amr_rescale;
  amr_rescale.name = "amr_rescale";
  amr_rescale.description =
      "Shrink/expand churn under AMR imbalance: tight submissions and a "
      "T_rescale_gap sweep force rescales while the mesh is adapting";
  amr_rescale.app = "amr";
  amr_rescale.submission_gap_s = 30.0;
  amr_rescale.axis = SweepAxis::kRescaleGap;
  amr_rescale.axis_values = {0, 60, 180, 600};
  amr_rescale.repeats = 20;
  add(amr_rescale);

  ScenarioSpec amr_lb;
  amr_lb.name = "amr_lb_ablation";
  amr_lb.description =
      "Load-balancer ablation on the AMR workload: null vs greedy vs refine "
      "(sweep values index charm::load_balancer_names())";
  amr_lb.app = "amr";
  amr_lb.axis = SweepAxis::kLbStrategy;
  amr_lb.axis_values = {0, 1, 2};
  amr_lb.policies = {PolicyMode::kElastic};
  amr_lb.repeats = 20;
  add(amr_lb);

  // Communication-skewed graph scenarios: jobs modeled from the power-law
  // graph app, whose hub parts concentrate message volume. graph_superstep
  // sweeps the skew exponent under the flat network; graph_lb_ablation puts
  // the workload on an oversubscribed fat-tree, where the comm-aware
  // balancer's rack-locality actually pays.
  ScenarioSpec graph_superstep;
  graph_superstep.name = "graph_superstep";
  graph_superstep.description =
      "Scheduler metrics vs power-law skew: graph workload models are "
      "re-calibrated per point, so hub concentration grows along the axis";
  graph_superstep.app = "graph";
  graph_superstep.axis = SweepAxis::kGraphSkew;
  graph_superstep.axis_values = {0.0, 0.5, 0.9};
  graph_superstep.repeats = 20;
  add(graph_superstep);

  ScenarioSpec graph_lb;
  graph_lb.name = "graph_lb_ablation";
  graph_lb.description =
      "Load-balancer ablation on the graph workload over a 4x-oversubscribed "
      "fat-tree: greedy vs commrefine (sweep values index "
      "charm::load_balancer_names())";
  graph_lb.app = "graph";
  graph_lb.graph_skew = 0.9;
  graph_lb.net_model = "fattree";
  graph_lb.net_oversub = 4.0;
  graph_lb.axis = SweepAxis::kLbStrategy;
  graph_lb.axis_values = {1, 3};
  graph_lb.policies = {PolicyMode::kElastic};
  graph_lb.repeats = 20;
  add(graph_lb);

  // Fault-injection scenarios (ROADMAP "Fault tolerance"): deterministic
  // crash/eviction plans executed by the shared harness, so both substrates
  // replay the identical failure sequence.
  ScenarioSpec fault_recovery;
  fault_recovery.name = "fault_recovery";
  fault_recovery.description =
      "All four policies under a fixed crash/eviction schedule with periodic "
      "disk checkpoints: recovery time, lost work and goodput per policy";
  fault_recovery.faults.crash_times = {400.0, 1100.0};
  fault_recovery.faults.evict_times = {700.0};
  fault_recovery.faults.checkpoint_period_s = 300.0;
  fault_recovery.repeats = 20;
  add(fault_recovery);

  ScenarioSpec fault_churn;
  fault_churn.name = "fault_churn";
  fault_churn.description =
      "Scheduler metrics vs crash MTBF under a fixed checkpoint cadence and "
      "a prun-style per-job failure budget";
  fault_churn.faults.checkpoint_period_s = 300.0;
  fault_churn.faults.max_failed_nodes = 2;
  fault_churn.axis = SweepAxis::kFaultMtbf;
  fault_churn.axis_values = {600, 1200, 2400, 4800};
  fault_churn.repeats = 20;
  add(fault_churn);

  ScenarioSpec fault_lb;
  fault_lb.name = "fault_lb_ablation";
  fault_lb.description =
      "Load-balancer ablation on the AMR workload under a crash chain: how "
      "much recovery re-placement quality matters when nodes keep failing";
  fault_lb.app = "amr";
  fault_lb.faults.crash_mtbf_s = 900.0;
  fault_lb.faults.checkpoint_period_s = 300.0;
  fault_lb.axis = SweepAxis::kLbStrategy;
  fault_lb.axis_values = {0, 1, 2};
  fault_lb.policies = {PolicyMode::kElastic};
  fault_lb.repeats = 20;
  add(fault_lb);

  // Correlated-failure scenarios (ROADMAP "Correlated failures"): the 64
  // slots split into consecutive failure domains (racks), and domain
  // crashes kill every PE of a domain atomically at one virtual timestamp.
  ScenarioSpec fault_correlated;
  fault_correlated.name = "fault_correlated";
  fault_correlated.description =
      "Rack-level correlated loss: four 16-slot failure domains, two domain "
      "crashes, periodic disk checkpoints — does elastic re-placement absorb "
      "or amplify the correlated burst?";
  fault_correlated.faults.domain_sizes = {16, 16, 16, 16};
  fault_correlated.faults.domain_crashes = {{500.0, 1}, {1300.0, 3}};
  fault_correlated.faults.checkpoint_period_s = 300.0;
  fault_correlated.repeats = 20;
  add(fault_correlated);

  ScenarioSpec fault_storm;
  fault_storm.name = "fault_storm";
  fault_storm.description =
      "Recovery storm: a 32-slot domain crash sends every resident job into "
      "restore at once while restore_bandwidth caps how many restores the "
      "storage path sustains concurrently";
  fault_storm.faults.domain_sizes = {32, 32};
  fault_storm.faults.domain_crashes = {{600.0, 0}};
  fault_storm.faults.checkpoint_period_s = 200.0;
  fault_storm.faults.restore_bandwidth = 2.0;
  fault_storm.num_jobs = 24;
  fault_storm.submission_gap_s = 30.0;
  fault_storm.repeats = 20;
  add(fault_storm);

  // Beyond-paper: the cluster substrate at production scale. Wide rigid
  // jobs (pods_per_job forces min=max) on an O(1000)-node emulated cluster
  // exercise the indexed store/scheduler path; nodes= and pods_per_job= are
  // the scale knobs (bench_fig_k8s_scale sweeps them to 10k nodes / 100k
  // pods). Analytic workloads: the point is control-plane cost, not
  // application calibration, and scale runs must not depend on minicharm.
  ScenarioSpec scale;
  scale.name = "k8s_scale";
  scale.description =
      "Cluster substrate at scale: wide rigid jobs on a large emulated "
      "cluster (scale knobs: nodes=, pods_per_job=, num_jobs=)";
  scale.substrate = Substrate::kCluster;
  scale.nodes = 1000;
  scale.cpus_per_node = 16;
  scale.num_jobs = 100;
  scale.pods_per_job = 100;
  scale.submission_gap_s = 10.0;
  scale.calibrated = false;
  scale.rescale_gap_s = 300.0;
  scale.policies = {PolicyMode::kRigidMin};
  scale.repeats = 1;
  add(scale);

  // Production trace campaign (ROADMAP "Trace campaigns"): a streaming
  // synthetic arrival trace replayed through run_stream with prun-style
  // per-job limits, so queued jobs abandon and runaway jobs are killed.
  // trace_jobs= is the length knob (bench_fig_trace sweeps it to 1M jobs —
  // memory stays proportional to in-flight jobs, not trace length);
  // substrate= picks the substrate.
  ScenarioSpec trace_replay;
  trace_replay.name = "trace_replay";
  trace_replay.description =
      "Streaming trace campaign: synthetic arrivals replayed through the "
      "bounded-memory streaming path with queue/task timeouts (length knob: "
      "trace_jobs=)";
  trace_replay.trace_jobs = 2000;
  // ~1.5x the sustainable arrival rate at 64 slots: enough pressure that
  // queue timeouts fire steadily, while most jobs still complete.
  trace_replay.submission_gap_s = 60.0;
  trace_replay.calibrated = false;
  trace_replay.queue_timeout_s = 3600.0;
  trace_replay.task_timeout_s = 900.0;
  trace_replay.repeats = 3;
  add(trace_replay);
}

std::vector<std::string> scenario_config_keys() {
  std::vector<std::string> keys = spec_config_keys();
  keys.insert(keys.begin(), "scenario");
  return keys;
}

ScenarioSpec resolve_scenario(const Config& cfg,
                              const std::string& default_name) {
  const std::string name = cfg.get_or("scenario", default_name);
  ScenarioSpec base;
  if (!name.empty()) base = ScenarioRegistry::instance().require(name);
  return spec_from_config(cfg, std::move(base));
}

std::string list_scenarios_text() {
  std::string out;
  for (const auto& spec : ScenarioRegistry::instance().scenarios()) {
    out += spec.name + "\n    " + spec.description + "\n    " +
           describe(spec) + "\n";
  }
  out += "\nconfig keys (override any scenario field):\n" + spec_config_help();
  return out;
}

}  // namespace ehpc::scenario
