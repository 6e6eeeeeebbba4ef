// Beyond-paper figure: the AMR irregular workload. Three panels:
//   a) scheduler metrics + LB imbalance vs refinement rate (amr_imbalance);
//   b) rescale stage timings while the mesh is heavily imbalanced, per LB
//      strategy (minicharm, cf. Figure 5 for the regular Jacobi case);
//   c) load-balancer ablation null/greedy/refine (amr_lb_ablation).
//
// The experiments are the registered "amr_imbalance" / "amr_lb_ablation"
// scenarios; this driver overlays flags and renders tables.

#include "apps/calibration.hpp"
#include "bench/lib/registry.hpp"
#include "bench/lib/scenario_tables.hpp"
#include "charm/load_balancer.hpp"
#include "common/config.hpp"
#include "scenario/registry.hpp"
#include "schedsim/calibrate.hpp"

using namespace ehpc;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  const int threads = cfg.get_int("threads", 1);
  using M = elastic::RunMetrics;

  // ---- panel a: refinement-rate sweep ----
  const scenario::ScenarioSpec imbalance =
      scenario::resolve_scenario(cfg, "amr_imbalance");
  bench::add_policy_tables(
      rep,
      {{"fig_amr_a1_utilization", &M::utilization, 3,
        "AMR panel a: cluster utilization"},
       {"fig_amr_a2_total_time", &M::total_time_s, 3,
        "AMR panel a: total time (s)"},
       {"fig_amr_a3_completion", &M::weighted_completion_s, 3,
        "AMR panel a: weighted mean completion time (s)"},
       {"fig_amr_a4_lb_ratio", &M::lb_post_ratio, 3,
        "AMR panel a: mean post-LB max/avg load ratio"}},
      " vs refinement rate", "refine_rate", imbalance.axis,
      scenario::run_sweep(imbalance, threads).points, bench::kFigurePolicies);

  // ---- panel b: rescale stage timings under imbalance, per LB strategy ----
  bench::add_rescale_stage_table(
      rep, "fig_amr_b_rescale_stages",
      "AMR panel b: 32 -> 16 shrink with a developed refinement front "
      "(minicharm, large class)",
      charm::load_balancer_names(), [](const charm::RuntimeConfig& rc) {
        const apps::AmrConfig config = schedsim::amr_config_for(
            elastic::JobClass::kLarge, /*refine_rate=*/0.12);
        return apps::measure_amr_rescale(config, 32, 16, /*warmup=*/8, rc);
      });

  // ---- panel c: LB strategy ablation on the scheduler metrics ----
  const scenario::ScenarioSpec ablation =
      scenario::resolve_scenario(cfg, "amr_lb_ablation");
  bench::add_point_table(
      rep, "fig_amr_c_lb_ablation",
      "AMR panel c: elastic policy per runtime LB strategy", "strategy",
      ablation.axis, scenario::run_sweep(ablation, threads).points,
      elastic::PolicyMode::kElastic,
      {{"utilization", &M::utilization, 3},
       {"total_s", &M::total_time_s, 1},
       {"completion_s", &M::weighted_completion_s, 2},
       {"lb_post_ratio", &M::lb_post_ratio, 3},
       {"migrations_per_step", &M::lb_migrations_per_step, 2}});

  std::string note = "(";
  note += std::to_string(imbalance.repeats);
  note += " random mixes per point, seed ";
  note += std::to_string(imbalance.seed);
  note += "; AMR workloads are minicharm-calibrated per sweep point)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig_amr",
    "AMR irregular workload: imbalance sweep, rescale stages, LB ablation",
    {{"repeats", "20", "random job mixes per sweep point"},
     {"seed", "2025", "base RNG seed"}},
    {{"repeats", "5"}},
    run}};

}  // namespace
