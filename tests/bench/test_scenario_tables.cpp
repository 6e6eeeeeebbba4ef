#include "bench/lib/scenario_tables.hpp"

#include <gtest/gtest.h>

#include "charm/load_balancer.hpp"

namespace ehpc::bench {
namespace {

using elastic::PolicyMode;
using M = elastic::RunMetrics;

/// Metrics whose utilization and completion encode (policy, point), so a
/// cell shows which record it was rendered from.
elastic::RunMetrics metrics(double utilization, double completion) {
  elastic::RunMetrics m;
  m.utilization = utilization;
  m.weighted_completion_s = completion;
  return m;
}

std::vector<scenario::SweepPoint> synthetic_points() {
  std::vector<scenario::SweepPoint> points;
  for (const double x : {0.0, 1.0, 2.0}) {
    scenario::SweepPoint point;
    point.x = x;
    point.metrics[PolicyMode::kRigidMin] = metrics(0.1 + x, 10.123456 + x);
    point.metrics[PolicyMode::kMoldable] = metrics(0.2 + x, 20.5 + x);
    point.metrics[PolicyMode::kElastic] = metrics(0.3 + x, 30.25 + x);
    points.push_back(point);
  }
  return points;
}

TEST(ScenarioTables, PolicyColumnsFollowTheOrderPassedIn) {
  Reporter rep("synthetic");
  add_policy_tables(rep, {{"util", &M::utilization, 3, "Utilization"}},
                    " vs gap", "gap_s", scenario::SweepAxis::kSubmissionGap,
                    synthetic_points(),
                    {PolicyMode::kElastic, PolicyMode::kRigidMin,
                     PolicyMode::kMoldable});
  const auto* entry = rep.find("util");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->table.header(),
            (std::vector<std::string>{"gap_s", "elastic", "min_replicas",
                                      "moldable"}));
  ASSERT_EQ(entry->table.rows(), 3u);
  EXPECT_EQ(entry->table.row(1),
            (std::vector<std::string>{"1", "1.3", "1.1", "1.2"}));
}

TEST(ScenarioTables, TitleIsTheColumnTitlePlusTheSuffix) {
  Reporter rep("synthetic");
  add_policy_tables(
      rep,
      {{"util", &M::utilization, 3, "Figure Xa: utilization"},
       {"completion", &M::weighted_completion_s, 3, "Figure Xb: completion"}},
      " vs gap", "gap_s", scenario::SweepAxis::kSubmissionGap,
      synthetic_points(), {PolicyMode::kElastic});
  ASSERT_EQ(rep.entries().size(), 2u);
  EXPECT_EQ(rep.entries()[0].title, "Figure Xa: utilization vs gap");
  EXPECT_EQ(rep.entries()[1].title, "Figure Xb: completion vs gap");
}

TEST(ScenarioTables, LbStrategyAxisRendersTheBalancerName) {
  const auto& names = charm::load_balancer_names();
  ASSERT_GE(names.size(), 3u);
  Reporter rep("synthetic");
  add_point_table(rep, "lb", "LB ablation", "strategy",
                  scenario::SweepAxis::kLbStrategy, synthetic_points(),
                  PolicyMode::kElastic, {{"utilization", &M::utilization, 3}});
  const Table& table = rep.find("lb")->table;
  ASSERT_EQ(table.rows(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(table.row(i)[0], names[i]);
}

TEST(ScenarioTables, OtherAxesRenderTheValueWithTrailingZerosTrimmed) {
  std::vector<scenario::SweepPoint> points;
  for (const double x : {90.0, 0.12, 0.8126, 0.0}) {
    scenario::SweepPoint point;
    point.x = x;
    point.metrics[PolicyMode::kElastic] = metrics(0.5, 1.0);
    points.push_back(point);
  }
  Reporter rep("synthetic");
  add_point_table(rep, "x", "Numeric axis", "graph_skew",
                  scenario::SweepAxis::kGraphSkew, points,
                  PolicyMode::kElastic, {{"utilization", &M::utilization, 3}});
  const Table& table = rep.find("x")->table;
  ASSERT_EQ(table.rows(), 4u);
  EXPECT_EQ(table.row(0)[0], "90");
  EXPECT_EQ(table.row(1)[0], "0.12");
  EXPECT_EQ(table.row(2)[0], "0.813");
  EXPECT_EQ(table.row(3)[0], "0");
}

TEST(ScenarioTables, EachColumnUsesItsOwnPrecision) {
  Reporter rep("synthetic");
  add_point_table(rep, "points", "Per point", "x",
                  scenario::SweepAxis::kNone, synthetic_points(),
                  PolicyMode::kRigidMin,
                  {{"completion_1", &M::weighted_completion_s, 1},
                   {"completion_4", &M::weighted_completion_s, 4}});
  const Table& table = rep.find("points")->table;
  EXPECT_EQ(table.header(), (std::vector<std::string>{"x", "completion_1",
                                                      "completion_4"}));
  EXPECT_EQ(table.row(0), (std::vector<std::string>{"0", "10.1", "10.1235"}));
}

TEST(ScenarioTables, PolicyRowTableHasOneRowPerPolicyInOrder) {
  Reporter rep("synthetic");
  add_policy_row_table(rep, "rows", "Per policy",
                       synthetic_points().front().metrics,
                       {PolicyMode::kMoldable, PolicyMode::kRigidMin},
                       {{"utilization", &M::utilization, 2}});
  const Table& table = rep.find("rows")->table;
  EXPECT_EQ(table.header(),
            (std::vector<std::string>{"policy", "utilization"}));
  ASSERT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.row(0), (std::vector<std::string>{"moldable", "0.2"}));
  EXPECT_EQ(table.row(1), (std::vector<std::string>{"min_replicas", "0.1"}));
}

TEST(ScenarioTables, RescaleStageTableMeasuresEachStrategyByName) {
  Reporter rep("synthetic");
  add_rescale_stage_table(rep, "stages", "Stages", {"greedy", "null"},
                          [](const charm::RuntimeConfig& rc) {
                            charm::RescaleTiming t;
                            t.load_balance_s = rc.load_balancer == "greedy"
                                                   ? 0.5
                                                   : 0.0;
                            t.checkpoint_s = 0.25;
                            t.migrated_objects = 7;
                            return t;
                          });
  const Table& table = rep.find("stages")->table;
  EXPECT_EQ(table.header(),
            (std::vector<std::string>{"strategy", "lb_s", "ckpt_s",
                                      "restart_s", "restore_s", "total_s",
                                      "migrated_objects"}));
  ASSERT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.row(0), (std::vector<std::string>{"greedy", "0.5", "0.25",
                                                    "0", "0", "0.75", "7"}));
  EXPECT_EQ(table.row(1)[0], "null");
  EXPECT_EQ(table.row(1)[1], "0");
}

}  // namespace
}  // namespace ehpc::bench
