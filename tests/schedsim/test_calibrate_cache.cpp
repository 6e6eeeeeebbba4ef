// The process-wide calibration cache: one measurement per key for each of
// the three calibrated apps, cached curves equal to a direct measurement,
// and a single measurement under concurrent first callers (this runs in the
// TSan lane with the scenario tests).
//
// Each ctest case is its own process, so the Jacobi key (which has no
// parameters) is cold when its test starts; AMR and graph tests use keys no
// other test in this file touches.

#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <thread>
#include <vector>

#include "apps/calibration.hpp"
#include "schedsim/calibrate.hpp"

namespace ehpc::schedsim {
namespace {

using Workloads = std::map<elastic::JobClass, elastic::Workload>;

void expect_same(const Workloads& a, const Workloads& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [cls, workload] : a) {
    const elastic::Workload& other = b.at(cls);
    EXPECT_EQ(workload.time_per_step.points(), other.time_per_step.points());
    EXPECT_EQ(workload.lb.post_ratio, other.lb.post_ratio);
    EXPECT_EQ(workload.lb.migrations_per_step, other.lb.migrations_per_step);
  }
}

TEST(CalibrationCache, JacobiMeasuresOnce) {
  const std::int64_t before = calibration_measurements();
  const Workloads first = calibrated_workloads();
  EXPECT_EQ(calibration_measurements(), before + 1);
  expect_same(calibrated_workloads(), first);
  expect_same(calibrated_workloads(), first);
  EXPECT_EQ(calibration_measurements(), before + 1);
}

TEST(CalibrationCache, JacobiCurvesEqualADirectMeasurement) {
  const Workloads cached = calibrated_workloads();
  for (const auto& [cls, workload] : cached) {
    const auto direct = apps::scaling_curve(apps::measure_jacobi_scaling(
        workload.grid_n, {1, 2, 4, 8, 16, 32, 64}, /*iterations=*/8));
    EXPECT_EQ(workload.time_per_step.points(), direct.points())
        << elastic::to_string(cls);
  }
}

TEST(CalibrationCache, AmrMeasuresOncePerKey) {
  const std::int64_t before = calibration_measurements();
  const Workloads greedy = amr_calibrated_workloads(0.03, "greedy");
  EXPECT_EQ(calibration_measurements(), before + 1);
  const Workloads null_lb = amr_calibrated_workloads(0.03, "null");
  EXPECT_EQ(calibration_measurements(), before + 2);
  expect_same(amr_calibrated_workloads(0.03, "greedy"), greedy);
  expect_same(amr_calibrated_workloads(0.03, "null"), null_lb);
  EXPECT_EQ(calibration_measurements(), before + 2);
}

TEST(CalibrationCache, GraphMeasuresOncePerKey) {
  const std::int64_t before = calibration_measurements();
  const Workloads flat = graph_calibrated_workloads(256, 0.7, "greedy", "flat", 1.0);
  EXPECT_EQ(calibration_measurements(), before + 1);
  const Workloads fattree =
      graph_calibrated_workloads(256, 0.7, "greedy", "fattree", 2.0);
  EXPECT_EQ(calibration_measurements(), before + 2);
  expect_same(graph_calibrated_workloads(256, 0.7, "greedy", "flat", 1.0), flat);
  expect_same(graph_calibrated_workloads(256, 0.7, "greedy", "fattree", 2.0),
              fattree);
  EXPECT_EQ(calibration_measurements(), before + 2);
}

TEST(CalibrationCache, RacingFirstCallersShareOneMeasurement) {
  constexpr int kThreads = 8;
  const std::int64_t before = calibration_measurements();
  std::vector<Workloads> results(kThreads);
  std::latch go(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      go.arrive_and_wait();
      results[static_cast<std::size_t>(t)] =
          graph_calibrated_workloads(256, 0.4, "refine", "flat", 1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(calibration_measurements(), before + 1);
  for (const Workloads& result : results) expect_same(result, results.front());
}

}  // namespace
}  // namespace ehpc::schedsim
