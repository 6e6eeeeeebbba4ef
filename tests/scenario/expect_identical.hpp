#pragma once

// Shared bit-identity assertions for the determinism tests: every RunMetrics
// field (walked through elastic::kRunMetricsFields) is compared with
// EXPECT_EQ (not EXPECT_NEAR) because the sweep engine's merge order is
// defined to be independent of thread scheduling.

#include <gtest/gtest.h>

#include <string>

#include "scenario/sweep.hpp"

namespace ehpc::scenario {

inline void expect_identical(const elastic::RunMetrics& a,
                             const elastic::RunMetrics& b,
                             const std::string& where) {
  for (const elastic::RunMetricsField& field : elastic::kRunMetricsFields) {
    EXPECT_EQ(a.*field.member, b.*field.member) << where << " " << field.name;
  }
}

inline void expect_identical(const SweepResult& serial,
                             const SweepResult& parallel) {
  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t p = 0; p < serial.points.size(); ++p) {
    EXPECT_EQ(serial.points[p].x, parallel.points[p].x);
    ASSERT_EQ(serial.points[p].metrics.size(),
              parallel.points[p].metrics.size());
    for (const auto& [mode, metrics] : serial.points[p].metrics) {
      expect_identical(metrics, parallel.points[p].metrics.at(mode),
                       "point " + std::to_string(p) + " " + to_string(mode));
    }
  }
}

}  // namespace ehpc::scenario
