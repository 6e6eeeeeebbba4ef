#include "apps/calibration.hpp"

#include <utility>

#include "common/error.hpp"

namespace ehpc::apps {

namespace {

/// Steady-state seconds per iteration from the driver's end-time stamps,
/// discarding the first iteration (startup transient).
double time_per_step(const std::vector<double>& end_times) {
  EHPC_EXPECTS(end_times.size() >= 3);
  const std::size_t first = 1;
  const std::size_t last = end_times.size() - 1;
  return (end_times[last] - end_times[first]) / static_cast<double>(last - first);
}

}  // namespace

JacobiConfig jacobi_for_grid(int grid_n, int max_iterations) {
  JacobiConfig cfg;
  cfg.grid_n = grid_n;
  cfg.blocks_x = 16;
  cfg.blocks_y = 16;
  cfg.max_real_block = 32;
  cfg.max_iterations = max_iterations;
  return cfg;
}

std::vector<ScalingPoint> measure_jacobi_scaling(
    int grid_n, const std::vector<int>& replica_counts, int iterations,
    charm::RuntimeConfig base) {
  std::vector<ScalingPoint> out;
  out.reserve(replica_counts.size());
  for (int replicas : replica_counts) {
    charm::RuntimeConfig rc = base;
    rc.num_pes = replicas;
    charm::Runtime rt(rc);
    // The curve reads only virtual time, which the stencil values never
    // affect: run the skeleton.
    JacobiConfig config = jacobi_for_grid(grid_n, iterations);
    config.skeleton = true;
    Jacobi2D app(rt, config);
    app.start();
    rt.run();
    EHPC_ENSURES(app.driver().finished());
    out.push_back({replicas, time_per_step(app.driver().iteration_end_times())});
  }
  return out;
}

std::vector<ScalingPoint> measure_leanmd_scaling(
    LeanMdConfig config, const std::vector<int>& replica_counts,
    charm::RuntimeConfig base) {
  std::vector<ScalingPoint> out;
  out.reserve(replica_counts.size());
  for (int replicas : replica_counts) {
    charm::RuntimeConfig rc = base;
    rc.num_pes = replicas;
    charm::Runtime rt(rc);
    LeanMd app(rt, config);
    app.start();
    rt.run();
    EHPC_ENSURES(app.driver().finished());
    out.push_back({replicas, time_per_step(app.driver().iteration_end_times())});
  }
  return out;
}

charm::RescaleTiming measure_jacobi_rescale(int grid_n, int from_replicas,
                                            int to_replicas,
                                            int warmup_iterations,
                                            charm::RuntimeConfig base) {
  EHPC_EXPECTS(from_replicas > 0 && to_replicas > 0);
  charm::RuntimeConfig rc = base;
  rc.num_pes = from_replicas;
  charm::Runtime rt(rc);
  // Enough iterations to cover warmup + a few post-rescale steps.
  Jacobi2D app(rt, jacobi_for_grid(grid_n, warmup_iterations + 6));
  app.driver().at_iteration(warmup_iterations, [to_replicas](charm::Runtime& r) {
    r.ccs().request_rescale(to_replicas);
  });
  app.start();
  rt.run();
  EHPC_ENSURES(rt.last_rescale().has_value());
  return *rt.last_rescale();
}

std::vector<ScalingPoint> measure_amr_scaling(
    AmrConfig config, const std::vector<int>& replica_counts, int lb_period,
    charm::RuntimeConfig base) {
  std::vector<ScalingPoint> out;
  out.reserve(replica_counts.size());
  for (int replicas : replica_counts) {
    charm::RuntimeConfig rc = base;
    rc.num_pes = replicas;
    charm::Runtime rt(rc);
    Amr app(rt, config);
    app.driver().set_lb_period(lb_period);
    app.start();
    rt.run();
    EHPC_ENSURES(app.driver().finished());
    // Mean over all iterations: an adapting mesh has no steady state.
    const auto& ends = app.driver().iteration_end_times();
    EHPC_EXPECTS(!ends.empty());
    out.push_back(
        {replicas, ends.back() / static_cast<double>(ends.size())});
  }
  return out;
}

charm::RescaleTiming measure_amr_rescale(AmrConfig config, int from_replicas,
                                         int to_replicas,
                                         int warmup_iterations,
                                         charm::RuntimeConfig base) {
  EHPC_EXPECTS(from_replicas > 0 && to_replicas > 0);
  charm::RuntimeConfig rc = base;
  rc.num_pes = from_replicas;
  charm::Runtime rt(rc);
  config.max_iterations = warmup_iterations + 6;
  Amr app(rt, config);
  app.driver().at_iteration(warmup_iterations, [to_replicas](charm::Runtime& r) {
    r.ccs().request_rescale(to_replicas);
  });
  app.start();
  rt.run();
  EHPC_ENSURES(rt.last_rescale().has_value());
  return *rt.last_rescale();
}

LbProfile measure_amr_lb_profile(AmrConfig config, int replicas, int lb_period,
                                 charm::RuntimeConfig base) {
  EHPC_EXPECTS(replicas > 0 && lb_period > 0);
  charm::RuntimeConfig rc = base;
  rc.num_pes = replicas;
  charm::Runtime rt(rc);
  Amr app(rt, config);
  app.driver().set_lb_period(lb_period);
  app.start();
  rt.run();
  EHPC_ENSURES(app.driver().finished());
  LbProfile profile;
  double pre_sum = 0.0;
  double post_sum = 0.0;
  double migrated_sum = 0.0;
  for (const auto& step : rt.lb_history()) {
    pre_sum += step.pre_ratio;
    post_sum += step.post_ratio;
    migrated_sum += static_cast<double>(step.migrated);
    ++profile.lb_steps;
  }
  if (profile.lb_steps > 0) {
    const double n = static_cast<double>(profile.lb_steps);
    profile.pre_ratio = pre_sum / n;
    profile.post_ratio = post_sum / n;
    profile.migrations_per_step = migrated_sum / n;
  }
  return profile;
}

std::vector<ScalingPoint> measure_graph_scaling(
    GraphConfig config, const std::vector<int>& replica_counts, int lb_period,
    charm::RuntimeConfig base) {
  std::vector<ScalingPoint> out;
  out.reserve(replica_counts.size());
  for (int replicas : replica_counts) {
    charm::RuntimeConfig rc = base;
    rc.num_pes = replicas;
    charm::Runtime rt(rc);
    Graph app(rt, config);
    app.driver().set_lb_period(lb_period);
    app.start();
    rt.run();
    EHPC_ENSURES(app.driver().finished());
    // Mean over all supersteps: LB migrations change the per-step time
    // mid-run, so there is no steady state to isolate.
    const auto& ends = app.driver().iteration_end_times();
    EHPC_EXPECTS(!ends.empty());
    out.push_back({replicas, ends.back() / static_cast<double>(ends.size())});
  }
  return out;
}

LbProfile measure_graph_lb_profile(GraphConfig config, int replicas,
                                   int lb_period, charm::RuntimeConfig base) {
  EHPC_EXPECTS(replicas > 0 && lb_period > 0);
  charm::RuntimeConfig rc = base;
  rc.num_pes = replicas;
  charm::Runtime rt(rc);
  Graph app(rt, config);
  app.driver().set_lb_period(lb_period);
  app.start();
  rt.run();
  EHPC_ENSURES(app.driver().finished());
  LbProfile profile;
  double pre_sum = 0.0;
  double post_sum = 0.0;
  double migrated_sum = 0.0;
  for (const auto& step : rt.lb_history()) {
    pre_sum += step.pre_ratio;
    post_sum += step.post_ratio;
    migrated_sum += static_cast<double>(step.migrated);
    ++profile.lb_steps;
  }
  if (profile.lb_steps > 0) {
    const double n = static_cast<double>(profile.lb_steps);
    profile.pre_ratio = pre_sum / n;
    profile.post_ratio = post_sum / n;
    profile.migrations_per_step = migrated_sum / n;
  }
  return profile;
}

PiecewiseLinear scaling_curve(const std::vector<ScalingPoint>& points) {
  EHPC_EXPECTS(!points.empty());
  std::vector<std::pair<double, double>> xy;
  xy.reserve(points.size());
  for (const auto& p : points) {
    xy.emplace_back(static_cast<double>(p.replicas), p.time_per_step_s);
  }
  return PiecewiseLinear(std::move(xy));
}

}  // namespace ehpc::apps
