// Beyond-paper figure: the power-law graph workload on the topology-aware
// network model. Three panels:
//   a) scheduler metrics vs the skew exponent (graph_superstep): hub
//      concentration grows along the axis and the per-point calibration
//      feeds it into the scheduler-level curves;
//   b) minicharm mean superstep time for greedy vs commrefine while the
//      fat-tree core oversubscription rises — the headline claim: the
//      comm-aware balancer wins on hub-skewed graphs and the gap widens
//      as bisection bandwidth shrinks;
//   c) load-balancer ablation on the scheduler metrics over the
//      4x-oversubscribed fat-tree (graph_lb_ablation).
//
// Panels a/c are the registered scenarios; panel b drives the runtime
// directly so the step-time mechanism is visible without the scheduler on
// top.

#include <string>

#include "apps/graph.hpp"
#include "bench/lib/registry.hpp"
#include "bench/lib/scenario_tables.hpp"
#include "charm/runtime.hpp"
#include "common/config.hpp"
#include "net/network_model.hpp"
#include "scenario/registry.hpp"

using namespace ehpc;

namespace {

/// Mean virtual-time superstep seconds for the graph config under one
/// (load balancer, network) combination.
double mean_step_seconds(const apps::GraphConfig& config,
                         const std::string& lb, double oversub,
                         int lb_period) {
  charm::RuntimeConfig rc;
  rc.num_pes = 32;
  rc.pes_per_node = 4;
  rc.load_balancer = lb;
  rc.network = net::make_network_model("fattree", oversub);
  charm::Runtime rt(rc);
  apps::Graph app(rt, config);
  app.driver().set_lb_period(lb_period);
  app.start();
  rt.run();
  return app.driver().iteration_end_times().back() / config.max_iterations;
}

void run(bench::Reporter& rep, const Config& cfg) {
  const int threads = cfg.get_int("threads", 1);
  const int vertices = cfg.get_int("vertices", 16384);
  using M = elastic::RunMetrics;

  // ---- panel a: skew sweep through the scheduler ----
  const scenario::ScenarioSpec superstep =
      scenario::resolve_scenario(cfg, "graph_superstep");
  bench::add_policy_tables(
      rep,
      {{"fig_graph_a1_utilization", &M::utilization, 3,
        "Graph panel a: cluster utilization"},
       {"fig_graph_a2_total_time", &M::total_time_s, 3,
        "Graph panel a: total time (s)"},
       {"fig_graph_a3_completion", &M::weighted_completion_s, 3,
        "Graph panel a: weighted mean completion time (s)"}},
      " vs power-law skew", "graph_skew", superstep.axis,
      scenario::run_sweep(superstep, threads).points, bench::kFigurePolicies);

  // ---- panel b: oversubscription vs LB strategy on the runtime ----
  apps::GraphConfig config;
  config.vertices = vertices;
  config.parts = 64;
  config.skew = 0.9;
  config.max_iterations = 10;
  Table& oversub_table = rep.add_table(
      "fig_graph_b_oversub",
      "Graph panel b: mean superstep time (s), 32 PEs / 4 per node, "
      "skew 0.9 fat-tree, LB every 2 supersteps",
      {"net_oversub", "greedy_step_s", "commrefine_step_s",
       "commrefine_speedup"});
  // Below the switch radix (4) the core is not structurally oversubscribed
  // and the hub access links dominate, so the gap holds steady; past it the
  // per-transfer core penalty scales with oversub and the gap widens.
  for (const double oversub : {1.0, 4.0, 8.0, 16.0}) {
    const double greedy =
        mean_step_seconds(config, "greedy", oversub, /*lb_period=*/2);
    const double comm =
        mean_step_seconds(config, "commrefine", oversub, /*lb_period=*/2);
    oversub_table.add_row({format_double(oversub, 0),
                           format_double(greedy, 6), format_double(comm, 6),
                           format_double(greedy / comm, 3)});
  }

  // ---- panel c: LB ablation through the scheduler ----
  const scenario::ScenarioSpec ablation =
      scenario::resolve_scenario(cfg, "graph_lb_ablation");
  bench::add_point_table(
      rep, "fig_graph_c_lb_ablation",
      "Graph panel c: elastic policy per runtime LB strategy "
      "(fat-tree, oversub 4)",
      "strategy", ablation.axis, scenario::run_sweep(ablation, threads).points,
      elastic::PolicyMode::kElastic,
      {{"utilization", &M::utilization, 3},
       {"total_s", &M::total_time_s, 1},
       {"completion_s", &M::weighted_completion_s, 2},
       {"migrations_per_step", &M::lb_migrations_per_step, 2}});

  std::string note = "(";
  note += std::to_string(superstep.repeats);
  note += " random mixes per scenario point, seed ";
  note += std::to_string(superstep.seed);
  note += "; panel b runs minicharm directly with ";
  note += std::to_string(vertices);
  note += " vertices)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig_graph",
    "Power-law graph: skew sweep, oversubscription vs comm-aware LB, "
    "LB ablation",
    {{"repeats", "20", "random job mixes per sweep point"},
     {"seed", "2025", "base RNG seed"},
     {"vertices", "16384", "graph size for the direct runtime panel"}},
    {{"repeats", "5"}},
    run}};

}  // namespace
