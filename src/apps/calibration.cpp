#include "apps/calibration.hpp"

#include <memory>
#include <utility>

#include "common/error.hpp"

namespace ehpc::apps {

namespace {

/// Steady-state seconds per iteration from the driver's end-time stamps,
/// discarding the first iteration (startup transient).
double steady_step(const std::vector<double>& end_times) {
  EHPC_EXPECTS(end_times.size() >= 3);
  const std::size_t first = 1;
  const std::size_t last = end_times.size() - 1;
  return (end_times[last] - end_times[first]) / static_cast<double>(last - first);
}

/// Mean seconds per iteration over the whole run: an adapting mesh, or a
/// graph whose parts migrate mid-run, has no steady state to isolate.
double mean_step(const std::vector<double>& end_times) {
  EHPC_EXPECTS(!end_times.empty());
  return end_times.back() / static_cast<double>(end_times.size());
}

/// One run of `App` (built from `input`) per replica count, balancing every
/// `lb_period` iterations (0 = never). Each point carries the step time
/// `step_time` reads off the iteration end times and the mean of the run's
/// LB steps.
template <typename App, typename Input>
std::vector<ScalingPoint> measure_runs(
    const Input& input, const std::vector<int>& replica_counts, int lb_period,
    const charm::RuntimeConfig& base,
    double (*step_time)(const std::vector<double>&)) {
  std::vector<ScalingPoint> out;
  out.reserve(replica_counts.size());
  for (int replicas : replica_counts) {
    charm::RuntimeConfig rc = base;
    rc.num_pes = replicas;
    charm::Runtime rt(rc);
    App app(rt, input);
    app.driver().set_lb_period(lb_period);
    app.start();
    rt.run();
    EHPC_ENSURES(app.driver().finished());
    ScalingPoint point{
        .replicas = replicas,
        .time_per_step_s = step_time(app.driver().iteration_end_times())};
    double pre_sum = 0.0;
    double post_sum = 0.0;
    double migrated_sum = 0.0;
    for (const auto& step : rt.lb_history()) {
      pre_sum += step.pre_ratio;
      post_sum += step.post_ratio;
      migrated_sum += static_cast<double>(step.migrated);
      ++point.lb.lb_steps;
    }
    if (point.lb.lb_steps > 0) {
      const double n = static_cast<double>(point.lb.lb_steps);
      point.lb.pre_ratio = pre_sum / n;
      point.lb.post_ratio = post_sum / n;
      point.lb.migrations_per_step = migrated_sum / n;
    }
    out.push_back(point);
  }
  return out;
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
  // The curve reads only virtual time, which the stencil values never
  // affect: run the skeleton.
  JacobiConfig config = jacobi_for_grid(grid_n, iterations);
  config.skeleton = true;
  return measure_runs<Jacobi2D>(config, replica_counts, /*lb_period=*/0, base,
                                steady_step);
}

std::vector<ScalingPoint> measure_leanmd_scaling(
    LeanMdConfig config, const std::vector<int>& replica_counts,
    charm::RuntimeConfig base) {
  return measure_runs<LeanMd>(config, replica_counts, /*lb_period=*/0, base,
                              steady_step);
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
  return measure_runs<Amr>(config, replica_counts, lb_period, base, mean_step);
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
  return measure_amr_scaling(config, {replicas}, lb_period, base).front().lb;
}

std::vector<ScalingPoint> measure_graph_scaling(
    GraphConfig config, const std::vector<int>& replica_counts, int lb_period,
    charm::RuntimeConfig base) {
  // The shape is a pure function of the config: build it once for every
  // replica count, and drop it with the call.
  return measure_runs<Graph>(std::make_shared<const GraphShape>(config),
                             replica_counts, lb_period, base, mean_step);
}

LbProfile measure_graph_lb_profile(GraphConfig config, int replicas,
                                   int lb_period, charm::RuntimeConfig base) {
  EHPC_EXPECTS(replicas > 0 && lb_period > 0);
  return measure_graph_scaling(config, {replicas}, lb_period, base).front().lb;
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
