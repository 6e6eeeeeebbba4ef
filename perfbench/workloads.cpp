#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "apps/calibration.hpp"
#include "charm/load_balancer.hpp"
#include "digest.hpp"
#include "net/network_model.hpp"
#include "opk/experiment.hpp"
#include "scenario/backend.hpp"
#include "scenario/registry.hpp"
#include "schedsim/calibrate.hpp"
#include "schedsim/simulator.hpp"
#include "trace/failures.hpp"

namespace perfbench {

namespace elastic = ehpc::elastic;
namespace sc = ehpc::scenario;
namespace schedsim = ehpc::schedsim;

namespace {

using Scope = Tracer::Scope;
using Workloads = std::map<elastic::JobClass, elastic::Workload>;
using Mix = std::vector<schedsim::SubmittedJob>;

/// The sweep engine's thread count in every workload (within a 4-core host).
constexpr int kSweepThreads = 2;

sc::ScenarioSpec registry_spec(const std::string& name, unsigned seed) {
  sc::ScenarioSpec spec = sc::ScenarioRegistry::instance().require(name);
  spec.seed = seed;
  return spec;
}

/// scenario::workloads_for under an "apps.calibrate" span. Analytic specs
/// (uncalibrated Jacobi) measure nothing and are not counted.
Workloads calibrate(const sc::ScenarioSpec& spec, Tracer* tracer,
                    Tally& tally) {
  const Scope span(tracer, "apps.calibrate");
  if (spec.app != "jacobi" || spec.calibrated) ++tally.calibrations;
  return sc::workloads_for(spec);
}

/// The sweep engine's work distribution: `threads` workers pull indices from
/// a shared counter; the first exception is rethrown after all drain.
void parallel_for(std::size_t n, int threads,
                  const std::function<void(std::size_t)>& body) {
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  const std::size_t size = std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  pool.reserve(size);
  for (std::size_t t = 0; t < size; ++t) pool.emplace_back(worker);
  for (auto& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// The spec at one sweep-axis value, as the sweep engine overlays it.
sc::ScenarioSpec at_axis_value(const sc::ScenarioSpec& spec, double value) {
  sc::ScenarioSpec point = spec;
  switch (spec.axis) {
    case sc::SweepAxis::kNone:
      break;
    case sc::SweepAxis::kSubmissionGap:
      point.submission_gap_s = value;
      break;
    case sc::SweepAxis::kRescaleGap:
      point.rescale_gap_s = value;
      break;
    case sc::SweepAxis::kRefineRate:
      point.refine_rate = value;
      break;
    case sc::SweepAxis::kLbStrategy:
      point.lb_strategy =
          ehpc::charm::load_balancer_names().at(static_cast<std::size_t>(value));
      break;
    case sc::SweepAxis::kFaultMtbf:
      point.faults.crash_mtbf_s = value;
      break;
    case sc::SweepAxis::kCheckpointPeriod:
      point.faults.checkpoint_period_s = value;
      break;
    case sc::SweepAxis::kGraphSkew:
      point.graph_skew = value;
      break;
    case sc::SweepAxis::kNetOversub:
      point.net_oversub = value;
      break;
  }
  return point;
}

/// Jobs a sweep submitted, and how many of them started (job starts are
/// the scheduler simulator's placements; abandoned jobs never start).
void count_sweep(const sc::ScenarioSpec& spec, const sc::SweepResult& sweep,
                 PassOutput& out) {
  const std::int64_t per_run = spec.num_jobs;
  for (const auto& point : sweep.points) {
    for (const auto& [mode, metrics] : point.metrics) {
      const std::int64_t jobs = per_run * spec.repeats;
      out.jobs += jobs;
      out.placements +=
          jobs - std::llround(metrics.jobs_abandoned * spec.repeats);
    }
  }
}

std::int64_t job_starts(const schedsim::SimResult& result) {
  return std::count_if(result.jobs.begin(), result.jobs.end(),
                       [](const elastic::JobRecord& r) { return !r.abandoned; });
}

/// A cluster-substrate experiment configured exactly as
/// scenario::ClusterBackend configures one, but kept by the caller so the
/// scheduler and index counters stay readable after the run.
std::unique_ptr<ehpc::opk::ClusterExperiment> build_cluster(
    const sc::ScenarioSpec& spec, elastic::PolicyMode mode, const Workloads& w,
    Tracer* tracer) {
  ehpc::opk::ExperimentConfig config;
  config.nodes = spec.nodes;
  config.cpus_per_node = spec.cpus_per_node;
  config.policy = sc::policy_for(spec, mode);
  config.faults = ehpc::trace::resolve_failure_trace(spec.faults);
  const Scope span(tracer, "k8s.cluster_build");
  return std::make_unique<ehpc::opk::ClusterExperiment>(config, w);
}

/// Run `mix` on a built cluster; fold the result and the control plane's
/// deterministic counters into the digest and the tally.
schedsim::SimResult run_cluster(ehpc::opk::ClusterExperiment& experiment,
                                const Mix& mix, Tracer* tracer, Tally& tally,
                                Digest& digest) {
  schedsim::SimResult result;
  {
    const Scope span(tracer, "opk.run");
    result = experiment.run(mix);
  }
  auto& cluster = experiment.cluster();
  const auto& sched = cluster.scheduler().stats();
  const auto& index = cluster.index().stats();
  const std::int64_t bound = cluster.scheduler().scheduled_count();
  const auto events = static_cast<std::int64_t>(cluster.sim().executed());
  digest.add(result);
  for (const std::int64_t v : {bound, sched.bind_attempts, sched.retry_sweeps,
                               index.placement_queries, index.nodes_examined,
                               events}) {
    digest.add(v);
  }
  ++tally.opk_runs;
  tally.pods_bound += bound;
  tally.bind_attempts += sched.bind_attempts;
  tally.retry_sweeps += sched.retry_sweeps;
  tally.placement_queries += index.placement_queries;
  tally.nodes_examined += index.nodes_examined;
  tally.sim_events += events;
  tally.rescales += result.rescale_count;
  return result;
}

// ---- the four workloads ----

/// The paper's experiments as the registry specifies them: Fig. 7 and
/// Fig. 8 sweeps, Table 1 on both substrates with one calibration, Fig. 9.
void paper_sweep(unsigned seed, Tracer* tracer, Tally& tally, PassOutput& out) {
  Digest digest;
  sc::ScenarioSpec fig7;
  sc::ScenarioSpec fig8;
  sc::ScenarioSpec table1;
  sc::ScenarioSpec fig9;
  Mix table1_mix;
  Mix fig9_mix;
  {
    const Scope setup(tracer, "bench.setup");
    fig7 = registry_spec("fig7_submission_gap", seed);
    fig8 = registry_spec("fig8_rescale_gap", seed);
    table1 = registry_spec("table1", seed);
    fig9 = registry_spec("fig9_cluster", seed);
    table1_mix = sc::make_mix(table1, table1.seed);
    fig9_mix = sc::make_mix(fig9, fig9.seed);
  }
  out.setup_end_s = now_s();
  {
    const Scope pass(tracer, "bench.pass");
    for (const sc::ScenarioSpec* spec : {&fig7, &fig8}) {
      const sc::SweepResult sweep =
          tracer != nullptr ? traced_sweep(*spec, kSweepThreads, *tracer, tally)
                            : sc::run_sweep(*spec, kSweepThreads);
      digest.add(sweep);
      count_sweep(*spec, sweep, out);
    }
    {
      const Scope span(tracer, "bench.table1");
      const Workloads w = calibrate(table1, tracer, tally);
      digest.add(w);
      std::map<elastic::PolicyMode, schedsim::SimResult> results;
      {
        const Scope run(tracer, "schedsim.run");
        results = sc::run_policies(table1, table1_mix, w);
      }
      for (const auto& [mode, result] : results) {
        digest.add(static_cast<int>(mode));
        digest.add(result);
        ++tally.sched_runs;
        tally.rescales += result.rescale_count;
        out.jobs += static_cast<std::int64_t>(table1_mix.size());
        out.placements += job_starts(result);
      }
      sc::ScenarioSpec actual = table1;
      actual.substrate = sc::Substrate::kCluster;
      for (const elastic::PolicyMode mode : actual.policies) {
        auto experiment = build_cluster(actual, mode, w, tracer);
        run_cluster(*experiment, table1_mix, tracer, tally, digest);
        out.jobs += static_cast<std::int64_t>(table1_mix.size());
      }
    }
    {
      const Scope span(tracer, "bench.fig9");
      const Workloads w = calibrate(fig9, tracer, tally);
      digest.add(w);
      for (const elastic::PolicyMode mode : fig9.policies) {
        auto experiment = build_cluster(fig9, mode, w, tracer);
        run_cluster(*experiment, fig9_mix, tracer, tally, digest);
        out.jobs += static_cast<std::int64_t>(fig9_mix.size());
      }
    }
  }
  out.wall_s = now_s() - out.setup_end_s;
  out.placements += tally.pods_bound;
  out.digest = digest.hex();
}

/// The 1M-job streaming replay of the trace_replay spec under the elastic
/// policy. SchedSimBackend::run_stream takes no retire observer, so the
/// pass builds the SchedSimulator that backend wraps, the same way.
void trace_1m(unsigned seed, Tracer* tracer, Tally& tally, PassOutput& out) {
  sc::ScenarioSpec spec;
  std::unique_ptr<schedsim::SchedSimulator> simulator;
  std::unique_ptr<ehpc::trace::TraceSource> source;
  {
    const Scope setup(tracer, "bench.setup");
    spec = registry_spec("trace_replay", seed);
    spec.trace_jobs = 1'000'000;
    spec.policies = {elastic::PolicyMode::kElastic};
    spec.repeats = 1;
    spec.validate();
    simulator = std::make_unique<schedsim::SchedSimulator>(
        spec.total_slots(), sc::policy_for(spec, elastic::PolicyMode::kElastic),
        calibrate(spec, tracer, tally));
    simulator->set_fault_plan(ehpc::trace::resolve_failure_trace(spec.faults));
    source = sc::make_trace_source(spec, spec.seed);
  }
  std::optional<TimingTraceSource> timing;
  if (tracer != nullptr) timing.emplace(*source);
  ehpc::trace::TraceSource& feed =
      timing ? static_cast<ehpc::trace::TraceSource&>(*timing) : *source;

  std::int64_t completed = 0;
  std::int64_t abandoned = 0;
  std::int64_t timed_out = 0;
  std::int64_t failed = 0;
  const auto observer = [&](const elastic::JobRecord& r) {
    if (r.abandoned) {
      ++abandoned;
    } else if (r.timed_out) {
      ++timed_out;
    } else if (r.failed) {
      ++failed;
    } else {
      ++completed;
    }
  };

  out.setup_end_s = now_s();
  schedsim::SimResult result;
  {
    const Scope pass(tracer, "bench.pass");
    const Scope stream(tracer, "schedsim.stream");
    result = simulator->run_stream(feed, observer);
  }
  out.wall_s = now_s() - out.setup_end_s;

  const std::int64_t submitted = result.stream.jobs_submitted;
  if (submitted != spec.trace_jobs) {
    out.violations.push_back("trace_1m: submitted " + std::to_string(submitted) +
                             " jobs, trace has " +
                             std::to_string(spec.trace_jobs));
  }
  if (completed + abandoned + timed_out + failed != submitted) {
    out.violations.push_back(
        "trace_1m: completed + abandoned + timed_out + failed != submitted");
  }
  const auto& m = result.metrics;
  if (abandoned != std::llround(m.jobs_abandoned) ||
      timed_out != std::llround(m.jobs_timed_out) ||
      failed != std::llround(m.jobs_failed)) {
    out.violations.push_back(
        "trace_1m: retired-job outcomes disagree with RunMetrics counts");
  }
  if (timing && timing->pulled() != submitted) {
    out.violations.push_back("trace_1m: jobs pulled from the source != submitted");
  }

  Digest digest;
  digest.add(result);
  for (const std::int64_t v : {completed, abandoned, timed_out, failed}) {
    digest.add(v);
  }
  out.digest = digest.hex();
  out.jobs = submitted;
  out.placements = submitted - abandoned;

  tally.jobs_submitted = submitted;
  tally.jobs_completed = completed;
  tally.jobs_abandoned = abandoned;
  tally.jobs_timed_out = timed_out;
  tally.peak_live_jobs = result.stream.peak_live_jobs;
  if (timing) {
    tally.jobs_pulled = timing->pulled();
    tally.trace_next_s = timing->next_s();
  }
}

/// The k8s_scale spec at 10k nodes and 1,000 jobs of 100 rigid workers.
void k8s_100k(unsigned seed, Tracer* tracer, Tally& tally, PassOutput& out) {
  sc::ScenarioSpec spec;
  Mix mix;
  std::unique_ptr<ehpc::opk::ClusterExperiment> experiment;
  {
    const Scope setup(tracer, "bench.setup");
    spec = registry_spec("k8s_scale", seed);
    spec.nodes = 10000;
    spec.num_jobs = 1000;
    spec.validate();
    const Workloads w = calibrate(spec, tracer, tally);
    mix = sc::make_mix(spec, spec.seed);
    experiment = build_cluster(spec, spec.policies.front(), w, tracer);
  }
  Digest digest;
  out.setup_end_s = now_s();
  schedsim::SimResult result;
  {
    const Scope pass(tracer, "bench.pass");
    result = run_cluster(*experiment, mix, tracer, tally, digest);
  }
  out.wall_s = now_s() - out.setup_end_s;

  const std::int64_t expected =
      static_cast<std::int64_t>(spec.num_jobs) * (spec.pods_per_job + 1);
  if (tally.pods_bound != expected) {
    out.violations.push_back("k8s_100k: " + std::to_string(tally.pods_bound) +
                             " pods bound, expected " + std::to_string(expected));
  }
  const auto unfinished = std::count_if(
      result.jobs.begin(), result.jobs.end(), [](const elastic::JobRecord& r) {
        return r.failed || r.abandoned || r.timed_out;
      });
  if (result.jobs.size() != mix.size() || unfinished != 0) {
    out.violations.push_back("k8s_100k: not every job ran to completion");
  }
  out.digest = digest.hex();
  out.jobs = static_cast<std::int64_t>(mix.size());
  out.placements = tally.pods_bound;
}

/// Traced graph_fattree only, after the timed region: measure each point's
/// graph curves directly through apps with a counting NetworkModel, and
/// check they equal what workloads_for calibrated (a memo hit here).
void verify_graph_calibration(const sc::ScenarioSpec& spec, Tracer* tracer,
                              Tally& tally, PassOutput& out) {
  const Scope verify(tracer, "bench.verify");
  auto sink = std::make_shared<NetCounts>();
  double migrations_sum = 0.0;
  int profiles = 0;
  for (const double x : spec.axis_values) {
    const sc::ScenarioSpec point = at_axis_value(spec, x);
    const Workloads expected = sc::workloads_for(point);
    // The runtime configuration schedsim::graph_calibrated_workloads uses.
    ehpc::charm::RuntimeConfig rc;
    rc.load_balancer = point.lb_strategy;
    rc.pes_per_node = 4;
    rc.network = std::make_shared<CountingNetworkModel>(
        ehpc::net::make_network_model(point.net_model, point.net_oversub),
        sink);
    for (const auto& [cls, workload] : expected) {
      const ehpc::apps::GraphConfig config =
          schedsim::graph_config_for(cls, point.graph_vertices, point.graph_skew);
      std::vector<ehpc::apps::ScalingPoint> scaling;
      {
        const Scope span(tracer, "apps.measure_graph_scaling");
        scaling = ehpc::apps::measure_graph_scaling(config, {1, 4, 16, 64},
                                                    /*lb_period=*/4, rc);
      }
      ehpc::apps::LbProfile profile;
      {
        const Scope span(tracer, "apps.measure_graph_lb_profile");
        profile = ehpc::apps::measure_graph_lb_profile(
            config, /*replicas=*/16, /*lb_period=*/4, rc);
      }
      const auto curve = ehpc::apps::scaling_curve(scaling);
      if (curve.points() != workload.time_per_step.points() ||
          profile.post_ratio != workload.lb.post_ratio ||
          profile.migrations_per_step != workload.lb.migrations_per_step) {
        out.violations.push_back("graph_fattree: direct measurement of " +
                                 elastic::to_string(cls) + " under " +
                                 point.lb_strategy +
                                 " differs from workloads_for");
      }
      tally.lb_steps += profile.lb_steps;
      migrations_sum += profile.migrations_per_step;
      ++profiles;
    }
  }
  // Every runtime (and so every clone holding the sink) is gone by now, so
  // the per-link peaks have been folded in.
  tally.net = *sink;
  tally.migrations_per_step = profiles > 0 ? migrations_sum / profiles : 0.0;
}

/// The graph_lb_ablation spec: greedy vs commrefine on a 4x-oversubscribed
/// fat-tree, 2 points x 20 repeats.
void graph_fattree(unsigned seed, Tracer* tracer, Tally& tally,
                   PassOutput& out) {
  sc::ScenarioSpec spec;
  {
    const Scope setup(tracer, "bench.setup");
    spec = registry_spec("graph_lb_ablation", seed);
  }
  out.setup_end_s = now_s();
  sc::SweepResult sweep;
  {
    const Scope pass(tracer, "bench.pass");
    sweep = tracer != nullptr
                ? traced_sweep(spec, kSweepThreads, *tracer, tally)
                : sc::run_sweep(spec, kSweepThreads);
  }
  out.wall_s = now_s() - out.setup_end_s;
  Digest digest;
  digest.add(sweep);
  out.digest = digest.hex();
  count_sweep(spec, sweep, out);
  if (tracer != nullptr) verify_graph_calibration(spec, tracer, tally, out);
}

/// Nearest-rank percentile of a non-empty sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

sc::SweepResult traced_sweep(const sc::ScenarioSpec& spec, int threads,
                             Tracer& tracer, Tally& tally) {
  const Scope sweep_span(&tracer, "scenario.sweep");
  spec.validate();
  if (spec.is_trace()) {
    throw std::invalid_argument("traced_sweep: trace specs are not supported");
  }
  const std::vector<double> xs = spec.axis == sc::SweepAxis::kNone
                                     ? std::vector<double>{0.0}
                                     : spec.axis_values;
  const std::size_t num_points = xs.size();
  const auto repeats = static_cast<std::size_t>(spec.repeats);
  const std::size_t num_policies = spec.policies.size();

  std::vector<Workloads> workloads;
  if (sc::axis_affects_workloads(spec.axis)) {
    for (const double x : xs) {
      workloads.push_back(calibrate(at_axis_value(spec, x), &tracer, tally));
    }
  } else {
    workloads.push_back(calibrate(spec, &tracer, tally));
  }

  const std::size_t num_cells = num_points * repeats;
  std::vector<std::vector<elastic::RunMetrics>> cells(num_cells);
  std::vector<std::int64_t> rescales(num_cells, 0);
  parallel_for(num_cells, threads, [&](std::size_t i) {
    const Scope cell(&tracer, "scenario.cell", sweep_span.id(), sweep_span.op());
    const std::size_t p = i / repeats;
    const std::size_t r = i % repeats;
    const sc::ScenarioSpec point = at_axis_value(spec, xs[p]);
    const Workloads& point_workloads = workloads[workloads.size() == 1 ? 0 : p];
    const unsigned cell_seed = spec.seed + static_cast<unsigned>(r);
    Mix mix;
    {
      const Scope span(&tracer, "elastic.mix");
      mix = sc::make_mix(point, cell_seed);
    }
    cells[i].resize(num_policies);
    for (std::size_t k = 0; k < num_policies; ++k) {
      const Scope span(&tracer, "schedsim.run");
      auto backend = sc::make_backend(
          point, sc::policy_for(point, spec.policies[k]), point_workloads);
      const schedsim::SimResult result = backend->run(mix);
      cells[i][k] = result.metrics;
      rescales[i] += result.rescale_count;
    }
  });

  const Scope merge(&tracer, "scenario.merge");
  sc::SweepResult out;
  out.points.reserve(num_points);
  for (std::size_t p = 0; p < num_points; ++p) {
    sc::SweepPoint point;
    point.x = xs[p];
    for (std::size_t k = 0; k < num_policies; ++k) {
      std::vector<elastic::RunMetrics> runs;
      runs.reserve(repeats);
      for (std::size_t r = 0; r < repeats; ++r) {
        runs.push_back(cells[p * repeats + r][k]);
      }
      point.metrics.emplace(spec.policies[k], elastic::average_metrics(runs));
    }
    out.points.push_back(std::move(point));
  }
  tally.cells += static_cast<std::int64_t>(num_cells);
  tally.sched_runs += static_cast<std::int64_t>(num_cells * num_policies);
  for (const std::int64_t n : rescales) tally.rescales += n;
  return out;
}

std::map<std::string, double> layer_metrics(const Tally& t,
                                            const std::vector<Span>& spans,
                                            double wall_s) {
  // Only the timed region and set-up count towards layer times; the graph
  // verification runs after the pass and has a root span of its own.
  int pass_root = -1;
  for (const Span& s : spans) {
    if (s.parent < 0 && s.name == "bench.pass") pass_root = s.id;
  }
  std::map<int, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  auto root_of = [&](const Span& s) {
    const Span* cur = &s;
    while (cur->parent >= 0) cur = by_id.at(cur->parent);
    return cur->name;
  };
  const std::map<int, double> self = self_times(spans);
  std::map<std::string, double> total_by_name;
  std::map<std::string, double> self_by_layer;
  std::vector<double> cell_ms;
  for (const Span& s : spans) {
    const std::string root = root_of(s);
    if (root == "bench.verify") continue;
    total_by_name[s.name] += s.end_s - s.start_s;
    if (root == "bench.pass") self_by_layer[layer_of(s.name)] += self.at(s.id);
    if (s.name == "scenario.cell") cell_ms.push_back(1e3 * (s.end_s - s.start_s));
  }
  std::sort(cell_ms.begin(), cell_ms.end());
  auto total = [&](const std::string& name) {
    const auto it = total_by_name.find(name);
    return it == total_by_name.end() ? 0.0 : it->second;
  };
  const auto d = [](std::int64_t v) { return static_cast<double>(v); };

  std::map<std::string, double> m;
  m["apps.calibrations"] = d(t.calibrations);
  m["apps.calibrate_s"] = total("apps.calibrate");
  m["apps.calibrate_share"] = ratio(total("apps.calibrate"), wall_s);
  m["charm.messages"] = d(t.net.messages);
  m["charm.lb_steps"] = d(t.lb_steps);
  m["charm.migrations_per_step"] = t.migrations_per_step;
  m["net.transfers"] = d(t.net.transfers);
  m["net.transfer_bytes"] = t.net.transfer_bytes;
  m["net.collectives"] = d(t.net.collectives);
  m["net.peak_link_sharing"] = t.net.peak_link_sharing;
  m["sim.events"] = d(t.sim_events);
  m["sim.ns_per_event"] = 1e9 * ratio(total("opk.run"), d(t.sim_events));
  m["trace.jobs_pulled"] = d(t.jobs_pulled);
  m["trace.next_s"] = t.trace_next_s;
  m["schedsim.stream_self_s"] =
      t.jobs_pulled > 0 ? total("schedsim.stream") - t.trace_next_s : 0.0;
  m["schedsim.peak_live_jobs"] = d(t.peak_live_jobs);
  m["schedsim.jobs_completed"] = d(t.jobs_completed);
  m["schedsim.jobs_abandoned"] = d(t.jobs_abandoned);
  m["schedsim.jobs_timed_out"] = d(t.jobs_timed_out);
  m["schedsim.useful_ratio"] = ratio(d(t.jobs_completed), d(t.jobs_submitted));
  m["schedsim.runs"] = d(t.sched_runs);
  m["schedsim.run_s"] = total("schedsim.run");
  m["scenario.cells"] = d(t.cells);
  m["scenario.cell_p50_ms"] = cell_ms.empty() ? 0.0 : percentile(cell_ms, 0.50);
  m["scenario.cell_p99_ms"] = cell_ms.empty() ? 0.0 : percentile(cell_ms, 0.99);
  m["elastic.mix_s"] = total("elastic.mix");
  m["elastic.rescales"] = d(t.rescales);
  m["k8s.pods_bound"] = d(t.pods_bound);
  m["k8s.bind_attempts"] = d(t.bind_attempts);
  m["k8s.retry_sweeps"] = d(t.retry_sweeps);
  m["k8s.placement_queries"] = d(t.placement_queries);
  m["k8s.nodes_examined"] = d(t.nodes_examined);
  m["k8s.examined_per_bind"] = ratio(d(t.nodes_examined), d(t.pods_bound));
  m["k8s.bind_success_ratio"] = ratio(d(t.pods_bound), d(t.bind_attempts));
  m["k8s.cluster_build_s"] = total("k8s.cluster_build");
  m["opk.runs"] = d(t.opk_runs);
  m["opk.run_s"] = total("opk.run");
  for (const char* layer :
       {"bench", "scenario", "apps", "elastic", "schedsim", "opk", "k8s"}) {
    const auto it = self_by_layer.find(layer);
    m[std::string(layer) + ".self_s"] = it == self_by_layer.end() ? 0.0 : it->second;
  }
  m["bench.span_coverage"] =
      pass_root >= 0 ? child_coverage(spans, pass_root) : 0.0;
  return m;
}

PassOutput run_pass(const std::string& workload, unsigned seed, bool traced) {
  std::unique_ptr<Tracer> tracer;
  if (traced) tracer = std::make_unique<Tracer>();
  PassOutput out;
  Tally tally;
  if (workload == "paper_sweep") {
    paper_sweep(seed, tracer.get(), tally, out);
  } else if (workload == "trace_1m") {
    trace_1m(seed, tracer.get(), tally, out);
  } else if (workload == "k8s_100k") {
    k8s_100k(seed, tracer.get(), tally, out);
  } else if (workload == "graph_fattree") {
    graph_fattree(seed, tracer.get(), tally, out);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  if (tracer) {
    out.spans = tracer->spans();
    out.layer = layer_metrics(tally, out.spans, out.wall_s);
    // The experiment-level spans must account for the whole timed region,
    // or the per-layer breakdown silently misses part of the pass.
    if (out.layer.at("bench.span_coverage") < 0.99) {
      out.violations.push_back("top-level spans cover less than 99% of wall_s");
    }
  }
  return out;
}

}  // namespace perfbench
