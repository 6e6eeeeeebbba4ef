#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "apps/amr.hpp"
#include "apps/graph.hpp"
#include "elastic/workload.hpp"

namespace ehpc::schedsim {

/// Workloads with analytic step-time curves (no minicharm runs needed).
std::map<elastic::JobClass, elastic::Workload> analytic_workloads();

/// Workloads whose step-time curves are *measured* by running Jacobi2D on
/// the minicharm runtime at each replica count — the repo-internal analogue
/// of the paper's "strong scaling performance measurements" feeding its
/// simulator. Measured once per process: like the AMR and graph variants,
/// this goes through the one keyed calibration cache, and the run is a
/// skeleton (`JacobiConfig::skeleton`) that skips the stencil numerics the
/// virtual-time curve never reads.
std::map<elastic::JobClass, elastic::Workload> calibrated_workloads();

/// Calibrations actually measured (cache misses) in this process so far,
/// over all three calibrated apps.
std::int64_t calibration_measurements();

/// The per-class AMR configuration the irregular-workload calibration runs
/// use (patch count and model cells grow with the class).
apps::AmrConfig amr_config_for(elastic::JobClass c, double refine_rate);

/// Irregular AMR-like workloads: step-time curves and the per-rescale LB
/// imbalance profile (`Workload::lb`) are measured by running the AMR app
/// on minicharm with `lb_strategy` ("null" | "greedy" | "refine") at each
/// replica count. Deterministic and cached per (rate, strategy).
std::map<elastic::JobClass, elastic::Workload> amr_calibrated_workloads(
    double refine_rate, const std::string& lb_strategy);

/// The per-class graph configuration the comm-skewed calibration runs use
/// (vertex count and part count grow with the class).
apps::GraphConfig graph_config_for(elastic::JobClass c, int vertices,
                                   double skew);

/// Communication-skewed power-law graph workloads: step-time curves and the
/// LB profile are measured by running the graph app on minicharm with
/// `lb_strategy` under the `net_model` network ("flat" | "fattree" |
/// "dragonfly", oversubscribed by `net_oversub`). Hub traffic over a
/// contended topology is what separates "commrefine" from compute-only
/// strategies here. Deterministic and cached per argument tuple.
std::map<elastic::JobClass, elastic::Workload> graph_calibrated_workloads(
    int vertices, double skew, const std::string& lb_strategy,
    const std::string& net_model, double net_oversub);

}  // namespace ehpc::schedsim
