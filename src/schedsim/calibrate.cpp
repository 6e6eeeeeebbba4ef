#include "schedsim/calibrate.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <future>
#include <mutex>
#include <tuple>
#include <utility>

#include "apps/calibration.hpp"
#include "net/network_model.hpp"

namespace ehpc::schedsim {

using elastic::JobClass;
using elastic::Workload;
using Workloads = std::map<JobClass, Workload>;

namespace {

/// The app and its parameters; fields an app does not use keep defaults.
struct CalibrationKey {
  std::string app{};
  double refine_rate = 0.0;
  std::string lb_strategy{};
  int vertices = 0;
  double skew = 0.0;
  std::string net_model{};
  double net_oversub = 0.0;
  auto operator<=>(const CalibrationKey&) const = default;
};

std::atomic<std::int64_t> measurements{0};

/// The process-wide calibration memo. A measurement is deterministic in its
/// key, so each key is measured once (a failure is kept like a result): the
/// first caller measures outside the lock, concurrent callers of the key
/// wait on its future, and other keys proceed in parallel.
Workloads cached(const CalibrationKey& key,
                 const std::function<Workloads()>& measure) {
  static std::mutex mutex;
  static std::map<CalibrationKey, std::shared_future<Workloads>> cache;
  std::packaged_task<Workloads()> task(measure);
  std::unique_lock<std::mutex> lock(mutex);
  const auto [it, miss] = cache.try_emplace(key, task.get_future().share());
  const std::shared_future<Workloads> entry = it->second;
  lock.unlock();
  if (miss) {
    ++measurements;
    task();
  }
  return entry.get();
}

/// The AMR and graph calibrations: per class, the step-time curve over
/// 1-64 replicas and the per-rescale LB behaviour at 16 replicas (where the
/// imbalance is pronounced), both balancing every 4 iterations under `rc`.
Workloads measure_with_lb(const auto& config_for, const auto& scaling,
                          const auto& profile, const charm::RuntimeConfig& rc) {
  Workloads out = analytic_workloads();
  for (auto& [cls, workload] : out) {
    const auto config = config_for(cls);
    workload.time_per_step = apps::scaling_curve(
        scaling(config, {1, 4, 16, 64}, /*lb_period=*/4, rc));
    const apps::LbProfile lb = profile(config, /*replicas=*/16,
                                       /*lb_period=*/4, rc);
    workload.lb.post_ratio = lb.post_ratio;
    workload.lb.migrations_per_step = lb.migrations_per_step;
  }
  return out;
}

}  // namespace

std::int64_t calibration_measurements() { return measurements.load(); }

Workloads analytic_workloads() {
  Workloads out;
  for (auto c : {JobClass::kSmall, JobClass::kMedium, JobClass::kLarge,
                 JobClass::kXLarge}) {
    out.emplace(c, elastic::make_workload(c));
  }
  return out;
}

Workloads calibrated_workloads() {
  return cached({.app = "jacobi"}, [] {
    Workloads out = analytic_workloads();
    for (auto& [cls, workload] : out) {
      workload.time_per_step = apps::scaling_curve(apps::measure_jacobi_scaling(
          workload.grid_n, {1, 2, 4, 8, 16, 32, 64}, /*iterations=*/8));
    }
    return out;
  });
}

apps::AmrConfig amr_config_for(JobClass c, double refine_rate) {
  // {blocks, cells_per_block} per class: job runtimes like the Jacobi
  // classes' (tens of seconds to ~10 minutes), where compute dominates the
  // per-message handler cost, so refinement genuinely moves step time.
  static constexpr std::array<std::pair<int, int>, 4> kSizes{
      {{64, 8192}, {96, 16384}, {128, 32768}, {192, 131072}}};
  apps::AmrConfig config;
  std::tie(config.blocks, config.cells_per_block) =
      kSizes.at(static_cast<std::size_t>(c));
  config.max_real_cells = 64;
  config.max_depth = 2;
  config.max_iterations = 12;
  config.refine_rate = refine_rate;
  config.coarsen_rate = std::min(1.0 - refine_rate, refine_rate * 0.5);
  return config;
}

Workloads amr_calibrated_workloads(double refine_rate,
                                   const std::string& lb_strategy) {
  return cached(
      {.app = "amr", .refine_rate = refine_rate, .lb_strategy = lb_strategy},
      [&] {
        return measure_with_lb(
            [&](JobClass c) { return amr_config_for(c, refine_rate); },
            apps::measure_amr_scaling, apps::measure_amr_lb_profile,
            {.load_balancer = lb_strategy});
      });
}

apps::GraphConfig graph_config_for(JobClass c, int vertices, double skew) {
  // {vertices in halves of the base size, parts} per class: parts grow more
  // slowly than vertices (heavier parts on big classes) and are capped so a
  // tiny configured graph still partitions legally.
  static constexpr std::array<std::pair<int, int>, 4> kSizes{
      {{1, 48}, {2, 64}, {4, 96}, {8, 128}}};
  const auto [halves, parts] = kSizes.at(static_cast<std::size_t>(c));
  apps::GraphConfig config;
  config.vertices = vertices * halves / 2;
  if (c == JobClass::kSmall) config.vertices = std::max(2, config.vertices);
  config.parts = std::min(parts, config.vertices);
  config.skew = skew;
  config.max_iterations = 10;
  return config;
}

Workloads graph_calibrated_workloads(int vertices, double skew,
                                     const std::string& lb_strategy,
                                     const std::string& net_model,
                                     double net_oversub) {
  return cached(
      {.app = "graph", .lb_strategy = lb_strategy, .vertices = vertices,
       .skew = skew, .net_model = net_model, .net_oversub = net_oversub},
      [&] {
        // 4 PEs per node so 64 replicas span 16 nodes (4 racks of the
        // radix-4 topology): rack locality actually varies with placement.
        return measure_with_lb(
            [&](JobClass c) { return graph_config_for(c, vertices, skew); },
            apps::measure_graph_scaling, apps::measure_graph_lb_profile,
            {.pes_per_node = 4,
             .network = net::make_network_model(net_model, net_oversub),
             .load_balancer = lb_strategy});
      });
}

}  // namespace ehpc::schedsim
