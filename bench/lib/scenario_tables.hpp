#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/lib/reporter.hpp"
#include "charm/rescale.hpp"
#include "charm/runtime.hpp"
#include "scenario/sweep.hpp"

namespace ehpc::bench {

// Renderers for scenario results: every table a bench prints from
// `scenario::SweepPoint`s or `PolicyMetrics` is one of the layouts below,
// described by a list of MetricColumns. A sweep point's x cell is the LB
// name on the lb_strategy axis, else the value with up to 3 decimals
// (trailing zeros trimmed).

/// One rendered `RunMetrics` field. In a row table `id` is the column
/// header; in per-metric tables (one table per column) it is the table id
/// and `title` the table title.
struct MetricColumn {
  MetricColumn(std::string id_, double elastic::RunMetrics::*field_,
               int precision_ = 3, std::string title_ = "")
      : id(std::move(id_)),
        field(field_),
        precision(precision_),
        title(std::move(title_)) {}

  std::string id;
  double elastic::RunMetrics::*field;
  int precision;
  std::string title;
};

/// The policy column order of the paper's figures.
inline const std::vector<elastic::PolicyMode> kFigurePolicies{
    elastic::PolicyMode::kElastic, elastic::PolicyMode::kMoldable,
    elastic::PolicyMode::kRigidMin, elastic::PolicyMode::kRigidMax};

/// `first` followed by the columns' ids: the header of a row table.
std::vector<std::string> metric_headers(
    const std::string& first, const std::vector<MetricColumn>& columns);

/// One table per metric column: a row per sweep point, a column per policy
/// in `policies` order. Table titles are `column.title + title_suffix`.
void add_policy_tables(Reporter& rep, const std::vector<MetricColumn>& metrics,
                       const std::string& title_suffix,
                       const std::string& x_header, scenario::SweepAxis axis,
                       const std::vector<scenario::SweepPoint>& points,
                       const std::vector<elastic::PolicyMode>& policies);

/// One table with a row per sweep point of a single policy.
void add_point_table(Reporter& rep, const std::string& id,
                     const std::string& title, const std::string& x_header,
                     scenario::SweepAxis axis,
                     const std::vector<scenario::SweepPoint>& points,
                     elastic::PolicyMode policy,
                     const std::vector<MetricColumn>& columns);

/// One table with a row per policy, in `policies` order.
void add_policy_row_table(Reporter& rep, const std::string& id,
                          const std::string& title,
                          const scenario::PolicyMetrics& metrics,
                          const std::vector<elastic::PolicyMode>& policies,
                          const std::vector<MetricColumn>& columns);

/// `label` followed by the columns' cells of `m`, appended to `table`.
void add_metrics_row(Table& table, const std::string& label,
                     const elastic::RunMetrics& m,
                     const std::vector<MetricColumn>& columns);

/// Rescale stage timings per runtime LB strategy: one row per strategy,
/// each measured by `measure` under a RuntimeConfig naming that balancer.
void add_rescale_stage_table(
    Reporter& rep, const std::string& id, const std::string& title,
    const std::vector<std::string>& strategies,
    const std::function<charm::RescaleTiming(const charm::RuntimeConfig&)>&
        measure);

}  // namespace ehpc::bench
