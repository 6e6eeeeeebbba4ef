#include "apps/graph.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/error.hpp"

namespace ehpc::apps {

using charm::Chare;
using charm::Pup;
using charm::ReduceOp;
using charm::Runtime;

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

double Graph::stub_draw(unsigned seed, int vertex, int k) {
  std::uint64_t key = static_cast<std::uint64_t>(seed);
  key = splitmix64(key ^ (static_cast<std::uint64_t>(vertex) << 32));
  key = splitmix64(key ^ static_cast<std::uint64_t>(k));
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(key >> 11) * 0x1.0p-53;
}

GraphPart::GraphPart(std::shared_ptr<const GraphPartTopo> topo)
    : topo_(std::move(topo)) {
  EHPC_EXPECTS(topo_ != nullptr);
  ranks_.assign(static_cast<std::size_t>(topo_->num_vertices), 1.0);
  inbox_.resize(topo_->in_peers.size());
}

void GraphPart::pup(Pup& p) {
  p | ranks_;
  p | inbox_;
  p | iteration_;
  p | recv_count_;
  p | started_;
}

std::vector<double> GraphPart::scatter_values(
    const GraphPartTopo::OutPeer& peer) const {
  std::vector<double> out;
  out.reserve(peer.src_local.size());
  for (const int src : peer.src_local) {
    const auto i = static_cast<std::size_t>(src);
    out.push_back(ranks_[i] * topo_->inv_outdeg[i]);
  }
  return out;
}

void GraphPart::receive(int slot, std::vector<double> values) {
  auto& box = inbox_[static_cast<std::size_t>(slot)];
  EHPC_EXPECTS(box.empty());  // one message per peer per superstep
  box = std::move(values);
  ++recv_count_;
}

double GraphPart::compute() {
  const auto n = static_cast<std::size_t>(topo_->num_vertices);
  std::vector<double> acc(n, 0.0);
  // Local edges first, then remote contributions in ascending source-part
  // order: the summation order is a function of the graph alone, never of
  // message arrival order, so ranks are bit-identical across placements.
  for (const auto& [src, dst] : topo_->local_edges) {
    const auto s = static_cast<std::size_t>(src);
    acc[static_cast<std::size_t>(dst)] += ranks_[s] * topo_->inv_outdeg[s];
  }
  for (std::size_t i = 0; i < topo_->in_peers.size(); ++i) {
    const auto& peer = topo_->in_peers[i];
    const auto& box = inbox_[i];
    EHPC_ENSURES(box.size() == peer.dst_local.size());
    for (std::size_t j = 0; j < box.size(); ++j) {
      acc[static_cast<std::size_t>(peer.dst_local[j])] += box[j];
    }
    inbox_[i].clear();
  }
  double active = 0.0;
  for (std::size_t v = 0; v < n; ++v) {
    const double next = 0.15 + 0.85 * acc[v];
    if (std::abs(next - ranks_[v]) > Graph::kActiveThreshold) active += 1.0;
    ranks_[v] = next;
  }
  ++iteration_;
  recv_count_ = 0;
  started_ = false;
  return active;
}

GraphShape::GraphShape(const GraphConfig& config_in) : config(config_in) {
  EHPC_EXPECTS(config.vertices >= 2);
  EHPC_EXPECTS(config.parts >= 1 && config.parts <= config.vertices);
  EHPC_EXPECTS(config.skew >= 0.0);
  EHPC_EXPECTS(config.avg_degree >= 1.0);
  EHPC_EXPECTS(config.max_iterations > 0);
  EHPC_EXPECTS(config.flops_per_edge >= 0.0);

  const int v_count = config.vertices;
  const int p_count = config.parts;

  // Contiguous ranges; the first (vertices % parts) parts take the extra
  // vertex. Hubs (low vertex ids) therefore pile into the low parts.
  part_first.assign(static_cast<std::size_t>(p_count) + 1, 0);
  const int base = v_count / p_count;
  const int rem = v_count % p_count;
  for (int p = 0; p < p_count; ++p) {
    part_first[static_cast<std::size_t>(p) + 1] =
        part_first[static_cast<std::size_t>(p)] + base + (p < rem ? 1 : 0);
  }
  std::vector<int> part_of_vertex(static_cast<std::size_t>(v_count));
  for (int p = 0; p < p_count; ++p) {
    for (int v = part_first[static_cast<std::size_t>(p)];
         v < part_first[static_cast<std::size_t>(p) + 1]; ++v) {
      part_of_vertex[static_cast<std::size_t>(v)] = p;
    }
  }

  // Chung-Lu style degrees: vertex u gets weight (u+1)^(-skew); out-degrees
  // split the target edge budget proportionally (at least one stub each).
  const double s = config.skew;
  double total_weight = 0.0;
  std::vector<double> weight(static_cast<std::size_t>(v_count));
  for (int u = 0; u < v_count; ++u) {
    weight[static_cast<std::size_t>(u)] =
        std::pow(static_cast<double>(u + 1), -s);
    total_weight += weight[static_cast<std::size_t>(u)];
  }
  const double edge_budget =
      static_cast<double>(v_count) * config.avg_degree;
  out_degree.assign(static_cast<std::size_t>(v_count), 1);
  for (int u = 0; u < v_count; ++u) {
    out_degree[static_cast<std::size_t>(u)] = std::max(
        1, static_cast<int>(std::lround(
               edge_budget * weight[static_cast<std::size_t>(u)] /
               total_weight)));
    max_out_degree =
        std::max(max_out_degree, out_degree[static_cast<std::size_t>(u)]);
  }

  // Inverse-CDF target sampling over the same weights: density ∝ t^(-s) on
  // [1, N+1], so hubs also attract in-edges. The near-1 exponent uses the
  // logarithmic CDF branch to avoid the 1/(1-s) pole.
  const double n1 = static_cast<double>(v_count) + 1.0;
  const auto draw_target = [&](double r) {
    double x;
    if (std::abs(1.0 - s) < 1.0e-9) {
      x = std::pow(n1, r);
    } else {
      x = std::pow(1.0 + r * (std::pow(n1, 1.0 - s) - 1.0), 1.0 / (1.0 - s));
    }
    const int v = static_cast<int>(x) - 1;
    return std::clamp(v, 0, v_count - 1);
  };

  parts.resize(static_cast<std::size_t>(p_count));
  // Cross-edge accumulation keyed (src part, dst part); ordered map keeps
  // peer lists in ascending part order.
  std::map<std::pair<int, int>, std::pair<std::vector<int>, std::vector<int>>>
      cross;
  for (int p = 0; p < p_count; ++p) {
    auto& t = parts[static_cast<std::size_t>(p)];
    t.first_vertex = part_first[static_cast<std::size_t>(p)];
    t.num_vertices = part_first[static_cast<std::size_t>(p) + 1] -
                     part_first[static_cast<std::size_t>(p)];
    t.inv_outdeg.resize(static_cast<std::size_t>(t.num_vertices));
  }

  // One pass in (vertex ascending, stub ascending) order: the send-side
  // value order and receive-side index order are the same enumeration.
  for (int u = 0; u < v_count; ++u) {
    const int p = part_of_vertex[static_cast<std::size_t>(u)];
    auto& tp = parts[static_cast<std::size_t>(p)];
    const int u_local = u - tp.first_vertex;
    const int deg = out_degree[static_cast<std::size_t>(u)];
    tp.inv_outdeg[static_cast<std::size_t>(u_local)] =
        1.0 / static_cast<double>(deg);
    tp.total_out_edges += deg;
    for (int k = 0; k < deg; ++k) {
      int v = draw_target(Graph::stub_draw(config.seed, u, k));
      if (v == u) v = (v + 1) % v_count;  // no self-loops
      ++total_edges;
      const int q = part_of_vertex[static_cast<std::size_t>(v)];
      const int v_local = v - parts[static_cast<std::size_t>(q)].first_vertex;
      if (q == p) {
        tp.local_edges.push_back({u_local, v_local});
      } else {
        ++cut_edges;
        auto& lists = cross[{p, q}];
        lists.first.push_back(u_local);
        lists.second.push_back(v_local);
      }
    }
  }

  // Materialize peer lists. in_peers first (ascending source part via a
  // per-destination sweep of the ordered map), recording each receiver
  // slot; out_peers then link to those slots.
  std::map<std::pair<int, int>, int> slot_of;  // (src, dst) -> in_peers index
  for (auto& [key, lists] : cross) {
    const auto [p, q] = key;
    auto& tq = parts[static_cast<std::size_t>(q)];
    slot_of[key] = static_cast<int>(tq.in_peers.size());
    GraphPartTopo::InPeer in;
    in.part = p;
    in.dst_local = std::move(lists.second);
    tq.in_peers.push_back(std::move(in));
  }
  for (auto& [key, lists] : cross) {
    const auto [p, q] = key;
    GraphPartTopo::OutPeer out;
    out.part = q;
    out.dst_slot = slot_of[key];
    out.src_local = std::move(lists.first);
    parts[static_cast<std::size_t>(p)].out_peers.push_back(std::move(out));
  }
  // The map iterates (p, q) lexicographically, so each part's in_peers are
  // ascending in source part and out_peers ascending in destination part.
}

Graph::Graph(Runtime& rt, GraphConfig config)
    : Graph(rt, std::make_shared<const GraphShape>(config)) {}

Graph::Graph(Runtime& rt, std::shared_ptr<const GraphShape> shape)
    : rt_(rt), shape_(std::move(shape)) {
  EHPC_EXPECTS(shape_ != nullptr);
  array_ = rt_.create_array(
      "graph", config().parts, [shape = shape_](charm::ElementId e) {
        // Ranks restart fresh; pup overwrites them when the factory rebuilds
        // an element after a restart. The immutable topology re-attaches,
        // aliasing the shape so the shape outlives every element.
        return std::make_unique<GraphPart>(std::shared_ptr<const GraphPartTopo>(
            shape, &shape->parts[static_cast<std::size_t>(e)]));
      });

  driver_ = std::make_unique<IterationDriver>(
      rt_, array_, config().max_iterations, [this](int iter) { kick(iter); });
}

int Graph::part_of(int vertex) const {
  EHPC_EXPECTS(vertex >= 0 && vertex < config().vertices);
  const auto& first = shape_->part_first;
  const auto it = std::upper_bound(first.begin(), first.end(), vertex);
  return static_cast<int>(it - first.begin()) - 1;
}

std::vector<double> Graph::ranks() const {
  std::vector<double> out(static_cast<std::size_t>(config().vertices), 0.0);
  for (int p = 0; p < config().parts; ++p) {
    const auto& part =
        static_cast<const GraphPart&>(rt_.element(array_, p));
    const auto& topo = part.topo();
    for (int v = 0; v < topo.num_vertices; ++v) {
      out[static_cast<std::size_t>(topo.first_vertex + v)] = part.rank(v);
    }
  }
  return out;
}

void Graph::send_updates(int part) {
  auto& src = static_cast<GraphPart&>(rt_.element(array_, part));
  const auto& topo = src.topo();
  for (const auto& peer : topo.out_peers) {
    std::vector<double> values = src.scatter_values(peer);
    // Model message: one (index, value) record per edge, like a real CSR
    // update packet.
    const std::size_t bytes = 16 * values.size();
    const int slot = peer.dst_slot;
    rt_.send(array_, peer.part, bytes,
             [this, slot, values = std::move(values)](Chare& c,
                                                      Runtime& rt) mutable {
               auto& p = static_cast<GraphPart&>(c);
               // Combine work scales with the incoming edge count.
               rt.charge_flops(config().flops_per_edge *
                               static_cast<double>(values.size()));
               // Ad hoc handlers run once (the runtime moves them out of
               // the envelope first), so the payload can move on.
               p.receive(slot, std::move(values));
               maybe_compute(p, rt);
             });
  }
}

void Graph::maybe_compute(GraphPart& p, Runtime& rt) {
  if (!p.ready_to_compute()) return;
  const auto& topo = p.topo();
  // Local scatter/gather plus the damped update over the range.
  rt.charge_flops(config().flops_per_edge *
                      static_cast<double>(topo.local_edges.size()) +
                  4.0 * static_cast<double>(topo.num_vertices));
  const double active = p.compute();
  rt.contribute(array_, active, ReduceOp::kSum);
}

void Graph::kick(int /*iteration*/) {
  // "Start superstep": every part scatters rank/degree along its out-edges,
  // then updates once all expected peer messages arrive.
  for (int e = 0; e < config().parts; ++e) {
    rt_.send(array_, e, /*bytes=*/16, [this, e](Chare& c, Runtime& rt) {
      auto& part = static_cast<GraphPart&>(c);
      part.mark_started();
      // The scatter evaluation walks every out-edge once.
      rt.charge_flops(config().flops_per_edge *
                      static_cast<double>(part.topo().total_out_edges));
      send_updates(e);
      maybe_compute(part, rt);
    });
  }
}

}  // namespace ehpc::apps
