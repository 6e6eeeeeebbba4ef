// Beyond-paper figure: the cluster substrate at production scale. Each row
// runs the `k8s_scale` scenario (wide rigid jobs, rigid-min policy) at a
// growing (nodes, pods) shape — up to 10k emulated nodes / 100k pods — and
// records the *deterministic* control-plane cost counters maintained by the
// indexed store views:
//
//   bound            pods actually bound by the scheduler (workers+launchers)
//   bind_attempts    try_schedule invocations (binds + failed attempts)
//   retry_sweeps     deduplicated pending-queue sweeps
//   nodes_examined   fit/score evaluations inside placement queries
//   examined_per_bind  the scheduler-tick cost measure: with the indexed
//                      views this stays ~flat as pods grow 60x, i.e. total
//                      tick cost is linear in pods with a small constant
//                      (the historical scan grew as pods x nodes x pods)
//
// Virtual-time metrics (utilization, makespan) pin behavior; wall-clock per
// row goes into a note (not a compared cell — timing is machine-dependent)
// and the bench's total wall_ms is guarded by the perf-gate wall ceiling.
// The throughput floor lives in micro_benchmarks (BM_K8sClusterSchedule).

#include <algorithm>
#include <string>
#include <vector>

#include "bench/lib/registry.hpp"
#include "bench/lib/timer.hpp"
#include "common/table.hpp"
#include "opk/experiment.hpp"
#include "scenario/backend.hpp"
#include "scenario/registry.hpp"

using namespace ehpc;

namespace {

struct ScalePoint {
  int nodes;
  int num_jobs;
  int pods_per_job;
  double submission_gap_s;
};

void run(bench::Reporter& rep, const Config& cfg) {
  // nodes ∈ {100, 1k, 10k}; total worker pods 1.6k → 10k → 100k.
  const std::vector<ScalePoint> points{
      {100, 100, 16, 10.0},
      {1000, 100, 100, 10.0},
      {10000, 1000, 100, 1.0},
  };

  Table& table = rep.add_table(
      "fig_k8s_scale",
      "Cluster substrate at scale: indexed-view scheduler cost (k8s_scale "
      "scenario, rigid-min policy)",
      {"nodes", "pods", "bound", "bind_attempts", "retry_sweeps",
       "nodes_examined", "examined_per_bind", "utilization", "total_time_s"});

  std::string timing = "wall clock per row:";
  const scenario::ScenarioSpec base =
      scenario::resolve_scenario(cfg, "k8s_scale");
  for (const ScalePoint& point : points) {
    scenario::ScenarioSpec spec = base;
    spec.nodes = point.nodes;
    spec.num_jobs = point.num_jobs;
    spec.pods_per_job = point.pods_per_job;
    spec.submission_gap_s = point.submission_gap_s;
    spec.validate();

    const auto workloads = scenario::workloads_for(spec);
    const auto mix = scenario::make_mix(spec, spec.seed);
    opk::ExperimentConfig config;
    config.nodes = spec.nodes;
    config.cpus_per_node = spec.cpus_per_node;
    config.policy = scenario::policy_for(spec, spec.policies.front());
    opk::ClusterExperiment experiment(config, workloads);

    bench::Timer timer;
    const schedsim::SimResult result = experiment.run(mix);
    const double wall_ms = timer.elapsed_ms();

    const k8s::Cluster& cluster = experiment.cluster();
    const auto& sched = experiment.cluster().scheduler();
    const k8s::ClusterIndex::Stats& index = cluster.index().stats();
    const int pods = point.num_jobs * point.pods_per_job;
    const double per_bind =
        sched.scheduled_count() > 0
            ? static_cast<double>(index.nodes_examined) /
                  static_cast<double>(sched.scheduled_count())
            : 0.0;
    table.add_row({std::to_string(point.nodes), std::to_string(pods),
                   std::to_string(sched.scheduled_count()),
                   std::to_string(sched.stats().bind_attempts),
                   std::to_string(sched.stats().retry_sweeps),
                   std::to_string(index.nodes_examined),
                   format_double(per_bind, 2),
                   format_double(result.metrics.utilization, 3),
                   format_double(result.metrics.total_time_s, 1)});

    timing += " ";
    timing += std::to_string(point.nodes);
    timing += "n/";
    timing += std::to_string(pods);
    timing += "p=";
    timing += format_double(wall_ms, 0);
    timing += "ms (";
    timing += format_double(1000.0 * pods / std::max(wall_ms, 1e-9), 0);
    timing += " pods/s)";
  }
  rep.note(timing);
  std::string note = "(seed ";
  note += std::to_string(base.seed);
  note += "; counter cells are virtual-time deterministic — wall clock is "
          "reported only in the note above and via the bench wall_ms)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig_k8s_scale",
    "Cluster substrate at 10k nodes / 100k pods: deterministic scheduler "
    "tick-cost counters from the indexed views",
    {{"seed", "2025", "base RNG seed"}},
    {},
    run}};

}  // namespace
