#include "apps/calibration.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ehpc::apps {
namespace {

/// What one Jacobi run presents to the machine model: iteration end times,
/// events executed, and the per-element charged compute.
struct JacobiTrace {
  std::vector<double> end_times;
  std::size_t events = 0;
  std::vector<double> loads;
};

JacobiTrace run_jacobi(int grid_n, int replicas, bool skeleton) {
  charm::RuntimeConfig rc;
  rc.num_pes = replicas;
  charm::Runtime rt(rc);
  JacobiConfig config = jacobi_for_grid(grid_n, /*max_iterations=*/8);
  config.skeleton = skeleton;
  Jacobi2D app(rt, config);
  app.start();
  JacobiTrace trace;
  trace.events = rt.run();
  EXPECT_TRUE(app.driver().finished());
  trace.end_times = app.driver().iteration_end_times();
  trace.loads = rt.element_loads(app.array());
  return trace;
}

TEST(Calibration, JacobiScalingMonotoneForLargeProblem) {
  auto points = measure_jacobi_scaling(8192, {4, 16, 64}, 8);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GT(points[0].time_per_step_s, points[1].time_per_step_s);
  EXPECT_GT(points[1].time_per_step_s, points[2].time_per_step_s);
}

// The skeleton skips only the arithmetic: a dropped send stalls or reorders
// the run and a dropped flop charge shifts the loads, so every field of the
// trace must match the full-math run exactly. Grid 256 runs full-size
// blocks (model block == real block); 2048 and 16384 run reduced ones.
TEST(Calibration, SkeletonJacobiMatchesFullMathBitForBit) {
  for (const int grid_n : {256, 2048, 16384}) {
    for (const int replicas : {1, 4, 64}) {
      SCOPED_TRACE("grid " + std::to_string(grid_n) + ", replicas " +
                   std::to_string(replicas));
      const JacobiTrace full = run_jacobi(grid_n, replicas, /*skeleton=*/false);
      const JacobiTrace skeleton = run_jacobi(grid_n, replicas, /*skeleton=*/true);
      ASSERT_EQ(full.end_times.size(), 8u);
      EXPECT_EQ(skeleton.end_times, full.end_times);
      EXPECT_EQ(skeleton.events, full.events);
      EXPECT_EQ(skeleton.loads, full.loads);
    }
  }
}

TEST(Calibration, SmallProblemScalesWorseThanLarge) {
  auto small = measure_jacobi_scaling(512, {4, 64}, 8);
  auto large = measure_jacobi_scaling(16384, {4, 64}, 8);
  const double speedup_small = small[0].time_per_step_s / small[1].time_per_step_s;
  const double speedup_large = large[0].time_per_step_s / large[1].time_per_step_s;
  EXPECT_GT(speedup_large, speedup_small);
}

TEST(Calibration, LeanMdScalingMonotone) {
  LeanMdConfig cfg;
  cfg.cells_x = cfg.cells_y = 4;
  cfg.cells_z = 4;
  cfg.max_iterations = 8;
  cfg.atoms_per_cell = 400;
  cfg.real_atoms_per_cell = 4;
  auto points = measure_leanmd_scaling(cfg, {4, 16, 64});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_GT(points[0].time_per_step_s, points[1].time_per_step_s);
  EXPECT_GT(points[1].time_per_step_s, points[2].time_per_step_s);
}

TEST(Calibration, RescaleTimingHasAllStages) {
  auto timing = measure_jacobi_rescale(2048, 8, 4);
  EXPECT_EQ(timing.old_pes, 8);
  EXPECT_EQ(timing.new_pes, 4);
  EXPECT_GT(timing.load_balance_s, 0.0);
  EXPECT_GT(timing.checkpoint_s, 0.0);
  EXPECT_GT(timing.restart_s, 0.0);
  EXPECT_GT(timing.restore_s, 0.0);
}

TEST(Calibration, RestartGrowsWithReplicas) {
  auto small = measure_jacobi_rescale(2048, 4, 2);
  auto large = measure_jacobi_rescale(2048, 32, 16);
  EXPECT_LT(small.restart_s, large.restart_s);
}

TEST(Calibration, CheckpointGrowsWithProblemSize) {
  auto small = measure_jacobi_rescale(512, 8, 4);
  auto large = measure_jacobi_rescale(8192, 8, 4);
  EXPECT_LT(small.checkpoint_s, large.checkpoint_s);
}

TEST(Calibration, ScalingCurveInterpolates) {
  std::vector<ScalingPoint> pts{{4, 1.0}, {8, 0.5}, {16, 0.25}};
  auto curve = scaling_curve(pts);
  EXPECT_DOUBLE_EQ(curve.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(curve.at(6.0), 0.75);
  EXPECT_DOUBLE_EQ(curve.at(16.0), 0.25);
}

TEST(Calibration, JacobiForGridConfig) {
  auto cfg = jacobi_for_grid(4096);
  EXPECT_EQ(cfg.grid_n, 4096);
  EXPECT_EQ(cfg.blocks_x * cfg.blocks_y, 256);
  EXPECT_EQ(cfg.grid_n % cfg.blocks_x, 0);
}

}  // namespace
}  // namespace ehpc::apps
