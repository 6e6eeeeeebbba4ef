#pragma once

// The benchmark's four workloads. Each runs one pass through the library's
// public entry points (scenario, schedsim, opk, apps, trace) and returns the
// host-time figures, a correctness digest, invariant violations and — for a
// traced pass — per-layer counts and spans measured around those calls.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "scenario/sweep.hpp"
#include "tracing.hpp"

namespace perfbench {

/// Deterministic work counts gathered around library calls; traced passes
/// turn them into per-layer metrics.
struct Tally {
  std::int64_t calibrations = 0;   ///< workloads_for calls that measure
  std::int64_t sched_runs = 0;     ///< scheduler-simulator batch runs
  std::int64_t cells = 0;          ///< sweep cells (point x repeat)
  std::int64_t rescales = 0;       ///< SimResult::rescale_count summed
  std::int64_t opk_runs = 0;       ///< ClusterExperiment::run calls
  std::int64_t pods_bound = 0;
  std::int64_t bind_attempts = 0;
  std::int64_t retry_sweeps = 0;
  std::int64_t placement_queries = 0;
  std::int64_t nodes_examined = 0;
  std::int64_t sim_events = 0;     ///< cluster-substrate kernel events
  std::int64_t jobs_pulled = 0;    ///< trace source pulls
  double trace_next_s = 0.0;
  std::int64_t peak_live_jobs = 0;
  std::int64_t jobs_submitted = 0;  ///< streamed jobs
  std::int64_t jobs_completed = 0;
  std::int64_t jobs_abandoned = 0;
  std::int64_t jobs_timed_out = 0;
  NetCounts net;                    ///< graph calibration, measured directly
  std::int64_t lb_steps = 0;
  double migrations_per_step = 0.0;  ///< mean over measured LB profiles
};

struct PassOutput {
  std::string digest;
  double setup_end_s = 0.0;  ///< now_s() when the timed region began
  double wall_s = 0.0;       ///< duration of the timed region
  std::int64_t jobs = 0;     ///< jobs submitted to a simulator
  /// Pods bound by the emulated k8s scheduler plus, on the scheduler
  /// simulator (which has no pods and places a job's gang in one step), one
  /// per job start.
  std::int64_t placements = 0;
  std::vector<std::string> violations;  ///< failed invariants
  std::map<std::string, double> layer;  ///< per-layer metrics (traced only)
  std::vector<Span> spans;              ///< traced only
};

/// One pass of `workload` (paper_sweep, trace_1m, k8s_100k or
/// graph_fattree). `traced` adds spans, counting decorators and the
/// traced-only checks; the digest must not change.
PassOutput run_pass(const std::string& workload, unsigned seed, bool traced);

/// `scenario::run_sweep` taken apart into the public calls it makes
/// (workloads_for, make_mix, make_backend, run, average_metrics) so each can
/// carry a span: same cells, same seeds, same serial merge order, hence the
/// same result bit for bit. Batch (non-trace) specs only.
ehpc::scenario::SweepResult traced_sweep(const ehpc::scenario::ScenarioSpec& spec,
                                         int threads, Tracer& tracer,
                                         Tally& tally);

/// Per-layer metrics from a traced pass's tally and spans.
std::map<std::string, double> layer_metrics(const Tally& tally,
                                            const std::vector<Span>& spans,
                                            double wall_s);

}  // namespace perfbench
