#pragma once

#include <vector>

#include "apps/amr.hpp"
#include "apps/graph.hpp"
#include "apps/jacobi2d.hpp"
#include "apps/leanmd.hpp"
#include "charm/rescale.hpp"
#include "charm/runtime.hpp"
#include "common/piecewise_linear.hpp"

namespace ehpc::apps {

/// One strong-scaling measurement: steady-state time per step at a replica
/// count. These curves feed the scheduler simulator (paper §4.3.1: "We use
/// strong scaling performance measurements ... to model the runtime of a job
/// for a given number of replicas using a piecewise linear function").
struct ScalingPoint {
  int replicas = 0;
  double time_per_step_s = 0.0;
};

/// Canonical Jacobi configuration for a given model grid size: 16×16 blocks
/// (4× overdecomposition at 64 PEs), suitable for all four paper job sizes.
JacobiConfig jacobi_for_grid(int grid_n, int max_iterations = 12);

/// Run Jacobi2D on the minicharm runtime at each replica count and measure
/// the steady-state time per iteration (first iteration discarded as warmup).
/// The runs are skeletons (`JacobiConfig::skeleton`): same virtual time as a
/// full-math run, without the stencil arithmetic.
std::vector<ScalingPoint> measure_jacobi_scaling(
    int grid_n, const std::vector<int>& replica_counts, int iterations = 12,
    charm::RuntimeConfig base = {});

/// Same measurement for LeanMD.
std::vector<ScalingPoint> measure_leanmd_scaling(
    LeanMdConfig config, const std::vector<int>& replica_counts,
    charm::RuntimeConfig base = {});

/// Run Jacobi2D at `from_replicas`, post a CCS rescale to `to_replicas`
/// after `warmup_iterations`, and return the per-stage timing (paper §4.2).
/// Full math: the rescale checkpoints and restores the real grid.
charm::RescaleTiming measure_jacobi_rescale(int grid_n, int from_replicas,
                                            int to_replicas,
                                            int warmup_iterations = 3,
                                            charm::RuntimeConfig base = {});

/// Same measurement for the AMR workload. Scaling is averaged over the whole
/// run (not just steady state): the adapting mesh has no steady state, so
/// the mean step time is the honest calibration target. `lb_period` > 0 runs
/// the configured load balancer every that many iterations, so the measured
/// step time reflects the strategy's balancing quality *and* its cost —
/// that is what differentiates null/greedy/refine on an irregular app.
std::vector<ScalingPoint> measure_amr_scaling(
    AmrConfig config, const std::vector<int>& replica_counts,
    int lb_period = 0, charm::RuntimeConfig base = {});

/// Run the AMR workload at `from_replicas` with the front well developed,
/// then rescale to `to_replicas` — the rescale's LB stage sees a heavily
/// imbalanced object set, unlike the Jacobi measurement.
charm::RescaleTiming measure_amr_rescale(AmrConfig config, int from_replicas,
                                         int to_replicas,
                                         int warmup_iterations = 8,
                                         charm::RuntimeConfig base = {});

/// Imbalance profile of one AMR run with periodic load balancing: the mean
/// pre/post-LB max/avg load ratios and migrations per LB step reported by
/// the runtime's `lb_history()`.
struct LbProfile {
  double pre_ratio = 1.0;         ///< mean max/avg PE load before an LB step
  double post_ratio = 1.0;        ///< mean max/avg PE load after an LB step
  double migrations_per_step = 0.0;
  int lb_steps = 0;
};

LbProfile measure_amr_lb_profile(AmrConfig config, int replicas,
                                 int lb_period = 5,
                                 charm::RuntimeConfig base = {});

/// Same measurements for the power-law graph workload. The mean step time
/// is taken over the whole run (supersteps slow down as hub parts contend
/// for uplinks, then speed up after LB migrations) — pass a contention
/// NetworkModel in `base` to make placement quality visible in the number.
std::vector<ScalingPoint> measure_graph_scaling(
    GraphConfig config, const std::vector<int>& replica_counts,
    int lb_period = 0, charm::RuntimeConfig base = {});

LbProfile measure_graph_lb_profile(GraphConfig config, int replicas,
                                   int lb_period = 4,
                                   charm::RuntimeConfig base = {});

/// Piecewise-linear time-per-step(replicas) curve from scaling points.
PiecewiseLinear scaling_curve(const std::vector<ScalingPoint>& points);

}  // namespace ehpc::apps
