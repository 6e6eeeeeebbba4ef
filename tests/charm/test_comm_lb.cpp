// The comm-aware load-balancing seam: CommRefineLB's traffic-locality
// refinement, the guard waiver for comm-driven proposals, and the runtime
// plumbing that measures the object-communication graph and routes
// collective latencies through the NetworkModel interface.

#include "charm/load_balancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "apps/graph.hpp"
#include "charm/runtime.hpp"
#include "net/network_model.hpp"

namespace ehpc::charm {
namespace {

LbObject object(int elem, double load, PeId pe) {
  LbObject o;
  o.elem = elem;
  o.load = load;
  o.current_pe = pe;
  return o;
}

TEST(CommRefineLb, RegisteredAsTheFourthStrategy) {
  const auto& names = load_balancer_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names.back(), "commrefine");
  const auto lb = make_load_balancer("commrefine");
  EXPECT_EQ(lb->name(), "CommRefineLB");
  EXPECT_TRUE(lb->comm_aware());
  // The pre-existing strategies stay compute-only.
  for (const char* name : {"null", "greedy", "refine"}) {
    EXPECT_FALSE(make_load_balancer(name)->comm_aware()) << name;
  }
}

TEST(CommRefineLb, WithoutMeasuredTrafficBehavesLikeRefine) {
  std::vector<LbObject> objects;
  for (int i = 0; i < 12; ++i) {
    objects.push_back(object(i, 0.5 + 0.25 * (i % 3), i % 2));
  }
  const std::vector<PeId> pes{0, 1, 2};
  const CommRefineLb comm_lb(1.15);
  EXPECT_EQ(comm_lb.assign(objects, pes),
            RefineLb(1.15).assign(objects, pes));
  // An empty comm graph routed through the comm overload degrades the same
  // way.
  EXPECT_EQ(comm_lb.assign(objects, LbCommGraph{}, pes),
            RefineLb(1.15).assign(objects, pes));
}

TEST(CommRefineLb, ColocatesHeavyTalkersWithinTheLoadCap) {
  // Two heavy compute objects pin one per PE; two light objects exchange
  // nearly all the traffic. The comm-aware pass must pull the talkers onto
  // one PE (the cap leaves room), eliminating their cut traffic.
  std::vector<LbObject> objects{
      object(0, 1.0, 0), object(1, 1.0, 1),   // anchors
      object(2, 0.05, 0), object(3, 0.05, 1)  // talkers
  };
  LbCommGraph comm;
  comm.edges.push_back({2, 3, 1.0e6});
  comm.byte_cost = [](PeId a, PeId b) { return a == b ? 0.0 : 1.0e-9; };
  const std::vector<PeId> pes{0, 1};
  const LbAssignment out = CommRefineLb(1.15).assign(objects, comm, pes);
  EXPECT_EQ(out[2], out[3]);
  // The anchors still sit on distinct PEs (the cap blocks stacking them).
  EXPECT_NE(out[0], out[1]);
}

TEST(CommRefineLb, RespectsTheComputeLoadCap) {
  // All four objects talk heavily, but stacking everything on one PE would
  // blow the tolerance cap: the proposal must stay within it.
  std::vector<LbObject> objects{object(0, 1.0, 0), object(1, 1.0, 1),
                                object(2, 1.0, 2), object(3, 1.0, 3)};
  LbCommGraph comm;
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) comm.edges.push_back({a, b, 1.0e6});
  }
  comm.byte_cost = [](PeId a, PeId b) { return a == b ? 0.0 : 1.0e-9; };
  const std::vector<PeId> pes{0, 1, 2, 3};
  const LbAssignment out = CommRefineLb(1.15).assign(objects, comm, pes);
  const double ratio = load_imbalance(objects, out, pes);
  EXPECT_LE(ratio, 1.15 + 1e-12);
}

TEST(RunStrategy, CommDrivenProposalsWaiveTheNeverWorseGuard) {
  // Current placement is perfectly compute-balanced, so the guard would
  // veto any migration; a comm-driven proposal trades a little imbalance
  // for locality and must stand anyway.
  std::vector<LbObject> objects{
      object(0, 1.0, 0), object(1, 1.0, 1),   // anchors
      object(2, 0.05, 0), object(3, 0.05, 1)  // talkers
  };
  LbCommGraph comm;
  comm.edges.push_back({2, 3, 1.0e6});
  comm.byte_cost = [](PeId a, PeId b) { return a == b ? 0.0 : 1.0e-9; };
  const std::vector<PeId> pes{0, 1};
  const CommRefineLb lb(1.15);
  LbStepStats stats;
  const LbAssignment out = run_strategy(lb, objects, comm, pes, &stats);
  EXPECT_EQ(out[2], out[3]);
  EXPECT_GT(stats.migrated, 0);
  EXPECT_EQ(stats.strategy, "CommRefineLB");

  // The same strategy without a graph keeps the full guard: the balanced
  // placement survives untouched.
  LbStepStats no_comm_stats;
  const LbAssignment kept = run_strategy(lb, objects, pes, &no_comm_stats);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(kept[i], objects[i].current_pe);
  }
  EXPECT_EQ(no_comm_stats.migrated, 0);
}

/// The strategy as it was before it priced each PE pair once: byte_cost is
/// called per (object, candidate PE, neighbour) and loads live in a map
/// keyed by PE id. The table-driven strategy must match it exactly.
LbAssignment reference_comm_refine(double tolerance,
                                   const std::vector<LbObject>& objects,
                                   const LbCommGraph& comm,
                                   const std::vector<PeId>& available_pes) {
  LbAssignment out = GreedyLb().assign(objects, available_pes);
  std::map<PeId, double> pe_load;
  for (PeId pe : available_pes) pe_load[pe] = 0.0;
  double total_load = 0.0;
  for (std::size_t i = 0; i < objects.size(); ++i) {
    pe_load[out[i]] += objects[i].load;
    total_load += objects[i].load;
  }
  const double cap =
      tolerance * total_load / static_cast<double>(available_pes.size());
  std::vector<std::vector<std::pair<int, double>>> adj(objects.size());
  std::vector<double> adjacent_bytes(objects.size(), 0.0);
  for (const auto& e : comm.edges) {
    if (e.a == e.b || e.bytes <= 0.0) continue;
    adj[static_cast<std::size_t>(e.a)].push_back({e.b, e.bytes});
    adj[static_cast<std::size_t>(e.b)].push_back({e.a, e.bytes});
    adjacent_bytes[static_cast<std::size_t>(e.a)] += e.bytes;
    adjacent_bytes[static_cast<std::size_t>(e.b)] += e.bytes;
  }
  std::vector<std::size_t> order(objects.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return adjacent_bytes[a] > adjacent_bytes[b];
  });
  const auto comm_cost = [&](std::size_t i, PeId pe) {
    double cost = 0.0;
    for (const auto& [j, bytes] : adj[i]) {
      cost += bytes * comm.byte_cost(pe, out[static_cast<std::size_t>(j)]);
    }
    return cost;
  };
  for (int pass = 0; pass < 8; ++pass) {
    bool moved = false;
    for (std::size_t i : order) {
      if (adj[i].empty()) continue;
      const PeId from = out[i];
      double best_cost = comm_cost(i, from);
      PeId best_pe = from;
      for (PeId pe : available_pes) {
        if (pe == from) continue;
        if (pe_load[pe] + objects[i].load > cap) continue;
        const double cost = comm_cost(i, pe);
        if (cost < best_cost) {
          best_cost = cost;
          best_pe = pe;
        }
      }
      if (best_pe != from) {
        pe_load[from] -= objects[i].load;
        pe_load[best_pe] += objects[i].load;
        out[i] = best_pe;
        moved = true;
      }
    }
    if (!moved) break;
  }
  return out;
}

/// A seeded random problem: power-law-ish traffic among `n_objects`
/// objects, and a topology-like price (free on a PE, cheap within a pair of
/// PEs, dear across, with a per-direction skew so the price is asymmetric).
struct CommProblem {
  std::vector<LbObject> objects;
  LbCommGraph comm;
};

CommProblem random_problem(std::uint64_t seed, int n_objects,
                           const std::vector<PeId>& pes) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  CommProblem problem;
  for (int i = 0; i < n_objects; ++i) {
    // Quantized loads make equal-load ties (and cap-boundary cases) common.
    const double load = 0.25 * static_cast<double>(1 + rng() % 8);
    problem.objects.push_back(
        object(i, load, pes[static_cast<std::size_t>(rng() % pes.size())]));
  }
  const int n_edges = 3 * n_objects;
  for (int k = 0; k < n_edges; ++k) {
    // Low object ids are hubs: both endpoints skew towards them.
    const auto hub = [&] {
      const double r = unit(rng);
      return static_cast<int>(r * r * r * static_cast<double>(n_objects));
    };
    const double bytes =
        k % 7 == 0 ? 0.0 : std::floor(1.0e6 * std::pow(unit(rng), 3.0));
    problem.comm.edges.push_back({hub(), hub(), bytes});
  }
  problem.comm.byte_cost = [](PeId a, PeId b) {
    if (a == b) return 0.0;
    const double base = a / 2 == b / 2 ? 1.0e-10 : 1.0e-9;
    return base * (1.0 + 0.125 * static_cast<double>((a + 3 * b) % 4));
  };
  return problem;
}

TEST(CommRefineLb, PriceTableMatchesPerCallPricing) {
  const std::vector<std::vector<PeId>> pe_sets{
      {0, 1}, {0, 2, 5, 7}, {1, 2, 3, 4, 5, 6}, {3, 9, 10, 31}, {0, 1, 2, 3,
      4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const auto& pes : pe_sets) {
      for (const double tolerance : {1.05, 1.15, 1.5}) {
        const int n_objects = 4 + static_cast<int>(seed % 5) * 12;
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     std::to_string(pes.size()) + " PEs, tolerance " +
                     std::to_string(tolerance));
        const CommProblem problem = random_problem(seed, n_objects, pes);
        EXPECT_EQ(
            CommRefineLb(tolerance).assign(problem.objects, problem.comm, pes),
            reference_comm_refine(tolerance, problem.objects, problem.comm,
                                  pes));
      }
    }
  }
}

TEST(CommRefineLb, PricesEachPePairAtMostOnce) {
  const std::vector<PeId> pes{0, 2, 5, 7, 11};
  CommProblem problem = random_problem(/*seed=*/7, /*n_objects=*/40, pes);
  auto calls = std::make_shared<long>(0);
  auto price = problem.comm.byte_cost;
  problem.comm.byte_cost = [calls, price](PeId a, PeId b) {
    ++*calls;
    return price(a, b);
  };
  const LbAssignment out =
      CommRefineLb(1.15).assign(problem.objects, problem.comm, pes);
  EXPECT_LE(*calls, static_cast<long>(pes.size() * pes.size()));
  EXPECT_GT(*calls, 0);
  // And the per-call reference really does ask far more often.
  *calls = 0;
  EXPECT_EQ(reference_comm_refine(1.15, problem.objects, problem.comm, pes),
            out);
  EXPECT_GT(*calls, static_cast<long>(pes.size() * pes.size()));
}

/// Mock model that prices point-to-point messages like the flat model but
/// reports a fixed, large collective latency — detects whether the runtime
/// actually asks the NetworkModel for collective costs (the historical bug:
/// reductions were priced from a hard-coded contention-free floor).
class FixedCollectiveModel final : public net::NetworkModel {
 public:
  FixedCollectiveModel(net::CostModel base, double collective_s)
      : base_(base), collective_s_(collective_s) {}

  std::string name() const override { return "fixed-collective"; }
  std::string describe() const override { return "fixed-collective"; }
  double message_time(std::size_t bytes, int src_node,
                      int dst_node) const override {
    return base_.message_time(bytes, src_node, dst_node);
  }
  double inter_alpha() const override { return base_.inter_alpha(); }
  double collective_latency(int pes, double now) const override {
    (void)pes;
    (void)now;
    return collective_s_;
  }
  std::unique_ptr<net::NetworkModel> clone() const override {
    return std::make_unique<FixedCollectiveModel>(base_, collective_s_);
  }

 private:
  net::CostModel base_;
  double collective_s_;
};

double graph_run_seconds(std::shared_ptr<const net::NetworkModel> network) {
  RuntimeConfig rc;
  rc.num_pes = 4;
  rc.pes_per_node = 2;
  rc.network = std::move(network);
  Runtime rt(rc);
  apps::GraphConfig gc;
  gc.vertices = 128;
  gc.parts = 8;
  gc.max_iterations = 4;
  apps::Graph app(rt, gc);
  app.start();
  rt.run();
  EXPECT_TRUE(app.driver().finished());
  return app.driver().iteration_end_times().back();
}

TEST(RuntimeCollectives, ReductionsArePricedByTheNetworkModel) {
  // Regression: the runtime used to compute its own ceil(log2(pes)) *
  // inter_alpha tree floor for every reduction, so a contended (or here,
  // artificially slow) fabric never slowed collectives. With the seam in
  // place, each of the 4 supersteps pays the model's 1-second collective.
  const net::CostModel pod = net::presets::pod_network();
  const double flat_total = graph_run_seconds(
      std::make_shared<net::FlatNetworkModel>(pod));
  const double stretched_total = graph_run_seconds(
      std::make_shared<FixedCollectiveModel>(pod, /*collective_s=*/1.0));
  EXPECT_GT(stretched_total, flat_total + 3.0);
}

TEST(RuntimeCollectives, SaturatedTopologySlowsTheRunEndToEnd) {
  // A heavily oversubscribed fat-tree must make the same workload strictly
  // slower than the flat fabric — contention now reaches both point-to-point
  // messages and the per-superstep reductions.
  const net::CostModel pod = net::presets::pod_network();
  const double flat_total = graph_run_seconds(
      std::make_shared<net::FlatNetworkModel>(pod));
  const double contended_total = graph_run_seconds(
      net::make_network_model("fattree", /*oversub=*/16.0));
  EXPECT_GT(contended_total, flat_total);
}

TEST(RuntimeCommTracking, CommAwareStrategyReceivesTheMeasuredGraph) {
  // With commrefine configured, the runtime tracks cross-chare traffic and
  // the periodic LB step runs the comm-aware path (visible through
  // lb_history's strategy stamp).
  RuntimeConfig rc;
  rc.num_pes = 4;
  rc.pes_per_node = 2;
  rc.load_balancer = "commrefine";
  Runtime rt(rc);
  apps::GraphConfig gc;
  gc.vertices = 256;
  gc.parts = 16;
  gc.max_iterations = 6;
  apps::Graph app(rt, gc);
  app.driver().set_lb_period(2);
  app.start();
  rt.run();
  ASSERT_TRUE(app.driver().finished());
  ASSERT_FALSE(rt.lb_history().empty());
  for (const auto& step : rt.lb_history()) {
    EXPECT_EQ(step.strategy, "CommRefineLB");
    EXPECT_GT(step.objects, 0);
  }
}

}  // namespace
}  // namespace ehpc::charm
