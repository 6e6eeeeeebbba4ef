// Reproduces paper Figure 7: scheduler performance vs job submission rate.
// 16 random jobs (4 size classes, priorities 1-5), T_rescale_gap = 180 s,
// submission gap swept 0..300 s; four metrics for the four policies,
// averaged over `repeats` random mixes.
//
// The experiment itself is the registered "fig7_submission_gap" scenario;
// this driver only overlays flags and renders tables. `threads=N` (a common
// harness flag) fans the sweep cells out deterministically.

#include "bench/lib/registry.hpp"
#include "bench/lib/scenario_tables.hpp"
#include "common/config.hpp"
#include "scenario/registry.hpp"

using namespace ehpc;

namespace {

void run(bench::Reporter& rep, const Config& cfg) {
  const scenario::ScenarioSpec spec =
      scenario::resolve_scenario(cfg, "fig7_submission_gap");
  const auto points =
      scenario::run_sweep(spec, cfg.get_int("threads", 1)).points;

  using M = elastic::RunMetrics;
  bench::add_policy_tables(
      rep,
      {{"fig7a_utilization", &M::utilization, 3,
        "Figure 7a: cluster utilization"},
       {"fig7b_total_time", &M::total_time_s, 3, "Figure 7b: total time (s)"},
       {"fig7c_response", &M::weighted_response_s, 3,
        "Figure 7c: weighted mean response time (s)"},
       {"fig7d_completion", &M::weighted_completion_s, 3,
        "Figure 7d: weighted mean completion time (s)"}},
      " vs submission gap", "gap_s", spec.axis, points,
      bench::kFigurePolicies);
  std::string note = "(";
  note += std::to_string(spec.repeats);
  note += " random mixes per point, seed ";
  note += std::to_string(spec.seed);
  note += ", ";
  note += spec.calibrated ? "minicharm-calibrated" : "analytic";
  note += " step-time curves)";
  rep.note(note);
}

const bench::RegisterBench kReg{{
    "fig7_submission_gap",
    "Figure 7: scheduler metrics vs job submission gap (four policies)",
    {{"repeats", "100", "random job mixes per sweep point"},
     {"seed", "2025", "base RNG seed"},
     {"calibrated", "true", "use minicharm-calibrated step-time curves"}},
    {{"repeats", "10"}},
    run}};

}  // namespace
