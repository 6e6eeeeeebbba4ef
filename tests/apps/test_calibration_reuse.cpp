// One run per (config, replicas) feeds both a scaling point and its LB
// profile: every point of measure_{amr,graph}_scaling must equal a
// standalone run of the app at that replica count, bit for bit, and the
// profile wrappers must return exactly the point's profile.

#include "apps/calibration.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/network_model.hpp"

namespace ehpc::apps {
namespace {

constexpr int kLbPeriod = 4;

/// A standalone run, measured the way the calibration did before the
/// profile was read off the scaling run: a fresh runtime and app, the mean
/// step over the whole run, and the mean of the LB history.
template <typename App, typename Config>
ScalingPoint standalone_run(const Config& config, int replicas,
                            charm::RuntimeConfig rc) {
  rc.num_pes = replicas;
  charm::Runtime rt(rc);
  App app(rt, config);
  app.driver().set_lb_period(kLbPeriod);
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  const auto& ends = app.driver().iteration_end_times();
  ScalingPoint point;
  point.replicas = replicas;
  point.time_per_step_s = ends.back() / static_cast<double>(ends.size());
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
  return point;
}

void expect_same_profile(const LbProfile& a, const LbProfile& b) {
  EXPECT_EQ(a.pre_ratio, b.pre_ratio);
  EXPECT_EQ(a.post_ratio, b.post_ratio);
  EXPECT_EQ(a.migrations_per_step, b.migrations_per_step);
  EXPECT_EQ(a.lb_steps, b.lb_steps);
}

void expect_same_point(const ScalingPoint& a, const ScalingPoint& b) {
  EXPECT_EQ(a.replicas, b.replicas);
  EXPECT_EQ(a.time_per_step_s, b.time_per_step_s);
  expect_same_profile(a.lb, b.lb);
}

GraphConfig small_graph() {
  GraphConfig config;
  config.vertices = 512;
  config.parts = 32;
  config.skew = 0.9;
  config.max_iterations = 10;
  return config;
}

AmrConfig small_amr() {
  AmrConfig config;
  config.blocks = 32;
  config.cells_per_block = 4096;
  config.max_real_cells = 32;
  config.max_depth = 2;
  config.refine_rate = 0.25;
  config.coarsen_rate = 0.1;
  config.max_iterations = 12;
  return config;
}

/// The graph calibration's runtime shape: comm-aware balancing over a
/// contended fat-tree, 4 PEs per node.
charm::RuntimeConfig graph_runtime() {
  charm::RuntimeConfig rc;
  rc.pes_per_node = 4;
  rc.network = net::make_network_model("fattree", /*oversub=*/4.0);
  rc.load_balancer = "commrefine";
  return rc;
}

TEST(CalibrationReuse, GraphPointsEqualStandaloneRuns) {
  const GraphConfig config = small_graph();
  const charm::RuntimeConfig rc = graph_runtime();
  const auto points = measure_graph_scaling(config, {1, 4, 16}, kLbPeriod, rc);
  ASSERT_EQ(points.size(), 3u);
  for (const ScalingPoint& point : points) {
    SCOPED_TRACE("replicas " + std::to_string(point.replicas));
    expect_same_point(point,
                      standalone_run<Graph>(config, point.replicas, rc));
  }
  // The 16-PE run balances and migrates: the profile is not the default.
  EXPECT_GT(points.back().lb.lb_steps, 0);
}

TEST(CalibrationReuse, GraphProfileIsTheScalingPointsProfile) {
  const GraphConfig config = small_graph();
  const charm::RuntimeConfig rc = graph_runtime();
  expect_same_profile(
      measure_graph_scaling(config, {16}, kLbPeriod, rc).front().lb,
      measure_graph_lb_profile(config, 16, kLbPeriod, rc));
}

TEST(CalibrationReuse, AmrPointsEqualStandaloneRuns) {
  const AmrConfig config = small_amr();
  charm::RuntimeConfig rc;
  rc.load_balancer = "greedy";
  const auto points = measure_amr_scaling(config, {1, 4, 16}, kLbPeriod, rc);
  ASSERT_EQ(points.size(), 3u);
  for (const ScalingPoint& point : points) {
    SCOPED_TRACE("replicas " + std::to_string(point.replicas));
    expect_same_point(point, standalone_run<Amr>(config, point.replicas, rc));
  }
  EXPECT_GT(points.back().lb.lb_steps, 0);
}

TEST(CalibrationReuse, AmrProfileIsTheScalingPointsProfile) {
  const AmrConfig config = small_amr();
  charm::RuntimeConfig rc;
  rc.load_balancer = "greedy";
  expect_same_profile(
      measure_amr_scaling(config, {16}, kLbPeriod, rc).front().lb,
      measure_amr_lb_profile(config, 16, kLbPeriod, rc));
}

TEST(CalibrationReuse, UnbalancedRunsCarryTheDefaultProfile) {
  const auto points = measure_amr_scaling(small_amr(), {4}, /*lb_period=*/0);
  ASSERT_EQ(points.size(), 1u);
  expect_same_profile(points.front().lb, LbProfile{});
}

}  // namespace
}  // namespace ehpc::apps
