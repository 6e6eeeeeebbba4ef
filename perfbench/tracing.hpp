#pragma once

// Outside-in instrumentation for the benchmark's traced passes: wall-time
// spans kept in memory, plus decorators that count work at the seams the
// library already exposes (TraceSource, NetworkModel). Nothing here reaches
// into the library; every number is taken around a public call.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/network_model.hpp"
#include "trace/source.hpp"

namespace perfbench {

/// CLOCK_MONOTONIC seconds (steady_clock), comparable across processes on
/// one host: run.py stamps a pass's spawn time on the same clock.
double now_s();

struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "apps.calibrate"
  double start_s = 0.0;
  double end_s = 0.0;
  int id = 0;
  int parent = -1;  ///< -1 for a root span
  int op = 0;       ///< operation id shared by every span of one experiment
};

/// In-memory span store. Thread-safe: sweep cells record from worker
/// threads. Spans nest through a per-thread stack; a span opened on a new
/// thread names its parent explicitly.
class Tracer {
 public:
  /// RAII span. A null tracer makes it a no-op, so untraced passes run the
  /// same code with nothing recorded.
  class Scope {
   public:
    /// Child of the innermost open span on this thread (a root if none).
    Scope(Tracer* tracer, std::string name);
    /// Child of `parent`, in operation `op` (worker-thread entry points).
    Scope(Tracer* tracer, std::string name, int parent, int op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int id() const { return id_; }
    int op() const { return op_; }

   private:
    Tracer* tracer_;
    int id_ = -1;
    int op_ = 0;
    double start_s_;
  };

  /// Closed spans, by id (the order they opened).
  std::vector<Span> spans() const;

 private:
  /// A fresh operation id: one per root span.
  int new_op();
  int open(std::string name, int parent, int op, double start_s);
  void close(int id, double end_s);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< indexed by id; end_s < 0 while open
  int next_op_ = 0;
};

/// Seconds `span` spends outside its children: its duration minus the
/// union of the intervals its direct children cover (children may overlap
/// when they ran on different threads).
std::map<int, double> self_times(const std::vector<Span>& spans);

/// Share of span `id`'s duration covered by the union of its children.
double child_coverage(const std::vector<Span>& spans, int id);

/// The layer a span belongs to: its name up to the first '.'.
std::string layer_of(const std::string& span_name);

/// Spans as a JSON document (one object per span), for offline reading.
std::string spans_json(const std::vector<Span>& spans);

/// TraceSource decorator: counts pulled jobs and the wall time spent inside
/// the wrapped source's `next()`. Individual pulls are aggregated rather than
/// recorded as spans: a million-job replay would otherwise hold a million
/// spans and move the peak-RSS figure it is meant to explain.
class TimingTraceSource final : public ehpc::trace::TraceSource {
 public:
  explicit TimingTraceSource(ehpc::trace::TraceSource& inner) : inner_(inner) {}

  std::optional<ehpc::schedsim::SubmittedJob> next() override;

  long pulled() const { return pulled_; }
  double next_s() const { return next_s_; }

 private:
  ehpc::trace::TraceSource& inner_;
  long pulled_ = 0;
  double next_s_ = 0.0;
};

/// Counters a CountingNetworkModel and all of its clones add into.
struct NetCounts {
  std::int64_t messages = 0;     ///< every dispatched runtime message
  std::int64_t transfers = 0;    ///< messages that cross nodes
  double transfer_bytes = 0.0;   ///< bytes of those
  std::int64_t collectives = 0;  ///< collective latency queries
  int peak_link_sharing = 0;     ///< max over links of concurrent transfers
};

/// Forwarding NetworkModel: every call goes to the wrapped model unchanged,
/// so durations (and therefore results) are bit-identical; it only counts.
/// `clone()` wraps a clone of the inner model around the *same* counter
/// sink, so the per-runtime copies the charm runtime makes all report into
/// one place. Not thread-safe: use one sink per thread.
class CountingNetworkModel final : public ehpc::net::NetworkModel {
 public:
  CountingNetworkModel(std::unique_ptr<ehpc::net::NetworkModel> inner,
                       std::shared_ptr<NetCounts> sink);
  /// Folds the inner model's per-link peak sharing into the sink (contention
  /// models only; the flat model has no links).
  ~CountingNetworkModel() override;
  CountingNetworkModel(const CountingNetworkModel&) = delete;
  CountingNetworkModel& operator=(const CountingNetworkModel&) = delete;

  std::string name() const override { return inner_->name(); }
  std::string describe() const override { return inner_->describe(); }
  double message_time(std::size_t bytes, int src_node,
                      int dst_node) const override {
    return inner_->message_time(bytes, src_node, dst_node);
  }
  double begin_transfer(std::size_t bytes, int src_node, int dst_node,
                        double now) override;
  void end_transfer(std::size_t bytes, int src_node, int dst_node,
                    double at) override {
    inner_->end_transfer(bytes, src_node, dst_node, at);
  }
  double inter_alpha() const override { return inner_->inter_alpha(); }
  double collective_latency(int pes, double now) const override;
  std::unique_ptr<ehpc::net::NetworkModel> clone() const override;

 private:
  std::unique_ptr<ehpc::net::NetworkModel> inner_;
  std::shared_ptr<NetCounts> sink_;
};

}  // namespace perfbench
