// The benchmark's instrumentation must not perturb what it measures: every
// decorated run here reproduces the undecorated run's digest bit for bit.

#include <gtest/gtest.h>

#include <memory>

#include "apps/calibration.hpp"
#include "digest.hpp"
#include "net/network_model.hpp"
#include "scenario/backend.hpp"
#include "scenario/registry.hpp"
#include "scenario/sweep.hpp"
#include "schedsim/calibrate.hpp"
#include "schedsim/simulator.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sc = ehpc::scenario;
using ehpc::elastic::PolicyMode;

sc::ScenarioSpec small_trace_spec() {
  sc::ScenarioSpec spec = sc::ScenarioRegistry::instance().require("trace_replay");
  spec.trace_jobs = 3000;
  spec.policies = {PolicyMode::kElastic};
  return spec;
}

std::string stream_digest(const ehpc::schedsim::SimResult& result) {
  Digest digest;
  digest.add(result);
  return digest.hex();
}

ehpc::schedsim::SchedSimulator make_simulator(const sc::ScenarioSpec& spec) {
  return ehpc::schedsim::SchedSimulator(
      spec.total_slots(), sc::policy_for(spec, PolicyMode::kElastic),
      sc::workloads_for(spec));
}

TEST(Instrumentation, TimingTraceSourceReproducesUndecoratedStream) {
  const sc::ScenarioSpec spec = small_trace_spec();
  auto plain_source = sc::make_trace_source(spec, spec.seed);
  const auto plain = make_simulator(spec).run_stream(*plain_source);

  auto inner = sc::make_trace_source(spec, spec.seed);
  TimingTraceSource timed(*inner);
  const auto decorated = make_simulator(spec).run_stream(timed);

  EXPECT_EQ(stream_digest(plain), stream_digest(decorated));
  EXPECT_EQ(timed.pulled(), spec.trace_jobs);
  EXPECT_GT(timed.next_s(), 0.0);
}

TEST(Instrumentation, RetireObserverReproducesUndecoratedStream) {
  const sc::ScenarioSpec spec = small_trace_spec();
  auto plain_source = sc::make_trace_source(spec, spec.seed);
  const auto plain = make_simulator(spec).run_stream(*plain_source);

  long retired = 0;
  auto source = sc::make_trace_source(spec, spec.seed);
  const auto observed = make_simulator(spec).run_stream(
      *source, [&](const ehpc::elastic::JobRecord&) { ++retired; });

  EXPECT_EQ(stream_digest(plain), stream_digest(observed));
  EXPECT_EQ(retired, spec.trace_jobs);
}

TEST(Instrumentation, CountingNetworkModelReproducesUndecoratedCalibration) {
  const auto config = ehpc::schedsim::graph_config_for(
      ehpc::elastic::JobClass::kSmall, /*vertices=*/1024, /*skew=*/0.9);
  ehpc::charm::RuntimeConfig rc;
  rc.pes_per_node = 4;
  rc.network = ehpc::net::make_network_model("fattree", 4.0);
  const auto plain = ehpc::apps::measure_graph_scaling(config, {1, 4, 16}, 4, rc);

  auto sink = std::make_shared<NetCounts>();
  rc.network = std::make_shared<CountingNetworkModel>(
      ehpc::net::make_network_model("fattree", 4.0), sink);
  const auto counted = ehpc::apps::measure_graph_scaling(config, {1, 4, 16}, 4, rc);

  ASSERT_EQ(plain.size(), counted.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].replicas, counted[i].replicas);
    EXPECT_EQ(plain[i].time_per_step_s, counted[i].time_per_step_s);
  }
  EXPECT_GT(sink->messages, 0);
  EXPECT_GT(sink->transfers, 0);
  EXPECT_LE(sink->transfers, sink->messages);
  EXPECT_GT(sink->transfer_bytes, 0.0);
  EXPECT_GT(sink->collectives, 0);
  EXPECT_GE(sink->peak_link_sharing, 1);
}

TEST(Instrumentation, CountingNetworkModelClonesShareTheSink) {
  auto sink = std::make_shared<NetCounts>();
  const CountingNetworkModel model(ehpc::net::make_network_model("flat"), sink);
  auto copy = model.clone();
  copy->begin_transfer(1000, 0, 1, 0.0);
  copy->begin_transfer(1000, 2, 2, 0.0);
  EXPECT_EQ(sink->messages, 2);
  EXPECT_EQ(sink->transfers, 1);
  EXPECT_EQ(sink->transfer_bytes, 1000.0);
  EXPECT_EQ(copy->message_time(1000, 0, 1), model.message_time(1000, 0, 1));
}

TEST(Instrumentation, TracedSweepReproducesRunSweep) {
  for (const char* name : {"fig7_submission_gap", "fig8_rescale_gap"}) {
    sc::ScenarioSpec spec = sc::ScenarioRegistry::instance().require(name);
    spec.calibrated = false;  // analytic curves keep the test fast
    spec.repeats = 3;
    spec.axis_values.resize(3);
    Digest plain;
    plain.add(sc::run_sweep(spec, 2));

    Tracer tracer;
    Tally tally;
    Digest traced;
    traced.add(traced_sweep(spec, 2, tracer, tally));
    EXPECT_EQ(plain.hex(), traced.hex()) << name;
    EXPECT_EQ(tally.cells, 9);
    EXPECT_EQ(tally.sched_runs, 9 * static_cast<long>(spec.policies.size()));
    EXPECT_EQ(tally.calibrations, 0);
  }
}

TEST(Instrumentation, SelfTimeSubtractsTheUnionOfChildren) {
  // Parent [0, 10] with overlapping children [1, 4] and [3, 6] (two
  // threads) and a grandchild inside the first child.
  const std::vector<Span> spans{
      {"bench.pass", 0.0, 10.0, 0, -1, 0},
      {"scenario.cell", 1.0, 4.0, 1, 0, 0},
      {"scenario.cell", 3.0, 6.0, 2, 0, 0},
      {"schedsim.run", 1.5, 2.5, 3, 1, 0},
  };
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self.at(0), 5.0);
  EXPECT_DOUBLE_EQ(self.at(1), 2.0);
  EXPECT_DOUBLE_EQ(self.at(2), 3.0);
  EXPECT_DOUBLE_EQ(self.at(3), 1.0);
  EXPECT_DOUBLE_EQ(child_coverage(spans, 0), 0.5);
  EXPECT_EQ(layer_of("scenario.cell"), "scenario");
}

TEST(Instrumentation, ScopesNestPerThreadAndShareTheOperation) {
  Tracer tracer;
  {
    const Tracer::Scope outer(&tracer, "bench.pass");
    const Tracer::Scope inner(&tracer, "apps.calibrate");
    EXPECT_EQ(inner.op(), outer.op());
  }
  const Tracer::Scope other(&tracer, "bench.verify");
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2U);  // the open span is not reported
  EXPECT_EQ(spans[0].name, "bench.pass");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_NE(other.op(), spans[0].op);
}

}  // namespace
}  // namespace perfbench
