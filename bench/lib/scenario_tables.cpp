#include "bench/lib/scenario_tables.hpp"

#include "charm/load_balancer.hpp"
#include "common/table.hpp"

namespace ehpc::bench {

namespace {

std::string x_cell(scenario::SweepAxis axis, double x) {
  if (axis == scenario::SweepAxis::kLbStrategy) {
    return charm::load_balancer_names().at(static_cast<std::size_t>(x));
  }
  return format_double(x, 3);
}

}  // namespace

std::vector<std::string> metric_headers(
    const std::string& first, const std::vector<MetricColumn>& columns) {
  std::vector<std::string> out{first};
  for (const auto& column : columns) out.push_back(column.id);
  return out;
}

void add_policy_tables(Reporter& rep, const std::vector<MetricColumn>& metrics,
                       const std::string& title_suffix,
                       const std::string& x_header, scenario::SweepAxis axis,
                       const std::vector<scenario::SweepPoint>& points,
                       const std::vector<elastic::PolicyMode>& policies) {
  std::vector<std::string> header{x_header};
  for (const auto mode : policies) header.push_back(elastic::to_string(mode));
  for (const auto& metric : metrics) {
    Table& table =
        rep.add_table(metric.id, metric.title + title_suffix, header);
    for (const auto& point : points) {
      std::vector<std::string> row{x_cell(axis, point.x)};
      for (const auto mode : policies) {
        row.push_back(format_double(point.metrics.at(mode).*metric.field,
                                    metric.precision));
      }
      table.add_row(std::move(row));
    }
  }
}

void add_point_table(Reporter& rep, const std::string& id,
                     const std::string& title, const std::string& x_header,
                     scenario::SweepAxis axis,
                     const std::vector<scenario::SweepPoint>& points,
                     elastic::PolicyMode policy,
                     const std::vector<MetricColumn>& columns) {
  Table& table = rep.add_table(id, title, metric_headers(x_header, columns));
  for (const auto& point : points) {
    add_metrics_row(table, x_cell(axis, point.x), point.metrics.at(policy),
                    columns);
  }
}

void add_policy_row_table(Reporter& rep, const std::string& id,
                          const std::string& title,
                          const scenario::PolicyMetrics& metrics,
                          const std::vector<elastic::PolicyMode>& policies,
                          const std::vector<MetricColumn>& columns) {
  Table& table = rep.add_table(id, title, metric_headers("policy", columns));
  for (const auto mode : policies) {
    add_metrics_row(table, elastic::to_string(mode), metrics.at(mode),
                    columns);
  }
}

void add_metrics_row(Table& table, const std::string& label,
                     const elastic::RunMetrics& m,
                     const std::vector<MetricColumn>& columns) {
  std::vector<std::string> row{label};
  for (const auto& column : columns) {
    row.push_back(format_double(m.*column.field, column.precision));
  }
  table.add_row(std::move(row));
}

void add_rescale_stage_table(
    Reporter& rep, const std::string& id, const std::string& title,
    const std::vector<std::string>& strategies,
    const std::function<charm::RescaleTiming(const charm::RuntimeConfig&)>&
        measure) {
  Table& table = rep.add_table(
      id, title,
      {"strategy", "lb_s", "ckpt_s", "restart_s", "restore_s", "total_s",
       "migrated_objects"});
  for (const std::string& lb : strategies) {
    charm::RuntimeConfig rc;
    rc.load_balancer = lb;
    const charm::RescaleTiming t = measure(rc);
    table.add_row({lb, format_double(t.load_balance_s, 4),
                   format_double(t.checkpoint_s, 4),
                   format_double(t.restart_s, 4),
                   format_double(t.restore_s, 4), format_double(t.total(), 4),
                   std::to_string(t.migrated_objects)});
  }
}

}  // namespace ehpc::bench
