// Ablations for the policy and runtime design choices of the paper:
//   1. reserve_slots: the literal "freeSlots - 1" of Fig. 2 vs 0.
//   2. protect_top_job: Fig. 2/3's `index > 0` walk (never shrink the
//      highest-priority running job) vs considering all victims.
//   3. Out-of-order allocation: elastic/moldable sizing vs strict
//      rigid-by-priority (rigid max), the paper's motivation for (b) in §3.2.
//   4. Load-balancer strategy inside the runtime: greedy vs refine rescale
//      cost measured on minicharm.

#include "apps/calibration.hpp"
#include "bench/lib/registry.hpp"
#include "bench/lib/scenario_tables.hpp"
#include "common/config.hpp"
#include "scenario/registry.hpp"

using namespace ehpc;
using elastic::PolicyMode;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  // The "policy_compare" scenario with analytic curves; each ablation
  // variant supplies its own explicit PolicyConfig.
  scenario::ScenarioSpec spec =
      scenario::resolve_scenario(cfg, "policy_compare");
  spec.calibrated = false;
  const int threads = cfg.get_int("threads", 1);
  using M = elastic::RunMetrics;
  const std::vector<bench::MetricColumn> columns{
      {"total_s", &M::total_time_s, 1},
      {"utilization", &M::utilization, 4},
      {"response_s", &M::weighted_response_s, 2},
      {"completion_s", &M::weighted_completion_s, 2}};
  const auto headers = bench::metric_headers("variant", columns);
  auto add_variant = [&](Table& table, const std::string& label,
                         const elastic::PolicyConfig& pc) {
    bench::add_metrics_row(table, label,
                           scenario::run_repeats(spec, pc, threads), columns);
  };

  Table& t1 = rep.add_table(
      "ablation1_reserve_slots",
      "Ablation 1: reserve_slots (the 'freeSlots - 1' of Fig. 2)", headers);
  for (int reserve : {0, 1, 2}) {
    elastic::PolicyConfig pc;
    pc.mode = PolicyMode::kElastic;
    pc.rescale_gap_s = 180.0;
    pc.reserve_slots = reserve;
    add_variant(t1, "reserve=" + std::to_string(reserve), pc);
  }

  Table& t2 = rep.add_table(
      "ablation2_protect_top_job",
      "Ablation 2: protect_top_job (Fig. 2/3 walks index > 0)", headers);
  for (bool protect : {true, false}) {
    elastic::PolicyConfig pc;
    pc.mode = PolicyMode::kElastic;
    pc.rescale_gap_s = 180.0;
    pc.protect_top_job = protect;
    add_variant(t2, protect ? "protected (paper)" : "all victims", pc);
  }

  Table& t3 = rep.add_table(
      "ablation3_out_of_order",
      "Ablation 3: out-of-order allocation (moldable sizing) vs rigid "
      "priority order",
      headers);
  for (auto mode : {PolicyMode::kMoldable, PolicyMode::kRigidMax}) {
    elastic::PolicyConfig pc;
    pc.mode = mode;
    pc.rescale_gap_s = 180.0;
    add_variant(t3, elastic::to_string(mode), pc);
  }

  bench::add_rescale_stage_table(
      rep, "ablation4_lb_strategy",
      "Ablation 4: runtime LB strategy during a 32->16 shrink (Jacobi 8192^2, "
      "minicharm)",
      {"greedy", "refine", "null"}, [](const charm::RuntimeConfig& rc) {
        return apps::measure_jacobi_rescale(8192, 32, 16, 3, rc);
      });
}

const bench::RegisterBench kReg{{
    "ablation_policies",
    "Ablations: reserve_slots, protect_top_job, allocation order, LB strategy",
    {{"repeats", "40", "random job mixes per variant"},
     {"seed", "2025", "base RNG seed"}},
    {{"repeats", "10"}},
    run}};

}  // namespace
