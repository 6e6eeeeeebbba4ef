#include "tracing.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/// Open spans of the current thread, innermost last.
thread_local std::vector<std::pair<int, int>> open_stack;  // (id, op)

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name)
    : tracer_(tracer), start_s_(now_s()) {
  if (tracer_ == nullptr) return;
  const int parent = open_stack.empty() ? -1 : open_stack.back().first;
  op_ = open_stack.empty() ? tracer_->new_op() : open_stack.back().second;
  id_ = tracer_->open(std::move(name), parent, op_, start_s_);
  open_stack.emplace_back(id_, op_);
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, int parent, int op)
    : tracer_(tracer), op_(op), start_s_(now_s()) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->open(std::move(name), parent, op_, start_s_);
  open_stack.emplace_back(id_, op_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  open_stack.pop_back();
  tracer_->close(id_, now_s());
}

int Tracer::new_op() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_op_++;
}

int Tracer::open(std::string name, int parent, int op, double start_s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), start_s, -1.0, id, parent, op});
  return id;
}

void Tracer::close(int id, double end_s) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_s = end_s;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.reserve(spans_.size());
  for (const Span& span : spans_) {
    if (span.end_s >= 0.0) out.push_back(span);
  }
  return out;
}

namespace {

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = -1.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (open && start <= cur_end) {
      cur_end = std::max(cur_end, end);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = start;
    cur_end = end;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

std::map<int, std::vector<std::pair<double, double>>> child_intervals(
    const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<double, double>>> out;
  for (const Span& span : spans) {
    if (span.parent >= 0) out[span.parent].emplace_back(span.start_s, span.end_s);
  }
  return out;
}

}  // namespace

std::map<int, double> self_times(const std::vector<Span>& spans) {
  const auto children = child_intervals(spans);
  std::map<int, double> out;
  for (const Span& span : spans) {
    double covered = 0.0;
    if (auto it = children.find(span.id); it != children.end()) {
      covered = union_length(it->second);
    }
    out[span.id] = std::max(0.0, (span.end_s - span.start_s) - covered);
  }
  return out;
}

double child_coverage(const std::vector<Span>& spans, int id) {
  const auto children = child_intervals(spans);
  for (const Span& span : spans) {
    if (span.id != id) continue;
    const double duration = span.end_s - span.start_s;
    const auto it = children.find(id);
    if (it == children.end() || duration <= 0.0) return 0.0;
    return union_length(it->second) / duration;
  }
  return 0.0;
}

std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %d, \"parent\": %d, \"op\": %d, \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"name\": \"",
                  s.id, s.parent, s.op, s.start_s, s.end_s);
    out += buf;
    out += s.name;  // span names are benchmark-chosen identifiers
    out += i + 1 < spans.size() ? "\"},\n" : "\"}\n";
  }
  out += "]\n";
  return out;
}

std::optional<ehpc::schedsim::SubmittedJob> TimingTraceSource::next() {
  const double start = now_s();
  auto job = inner_.next();
  next_s_ += now_s() - start;
  if (job) ++pulled_;
  return job;
}

CountingNetworkModel::CountingNetworkModel(
    std::unique_ptr<ehpc::net::NetworkModel> inner,
    std::shared_ptr<NetCounts> sink)
    : inner_(std::move(inner)), sink_(std::move(sink)) {}

CountingNetworkModel::~CountingNetworkModel() {
  const auto* contention =
      dynamic_cast<const ehpc::net::ContentionNetworkModel*>(inner_.get());
  if (contention == nullptr) return;
  for (const auto& [link, stats] : contention->link_stats()) {
    sink_->peak_link_sharing =
        std::max(sink_->peak_link_sharing, stats.peak_sharing);
  }
}

double CountingNetworkModel::begin_transfer(std::size_t bytes, int src_node,
                                            int dst_node, double now) {
  ++sink_->messages;
  if (src_node != dst_node) {
    ++sink_->transfers;
    sink_->transfer_bytes += static_cast<double>(bytes);
  }
  return inner_->begin_transfer(bytes, src_node, dst_node, now);
}

double CountingNetworkModel::collective_latency(int pes, double now) const {
  ++sink_->collectives;
  return inner_->collective_latency(pes, now);
}

std::unique_ptr<ehpc::net::NetworkModel> CountingNetworkModel::clone() const {
  return std::make_unique<CountingNetworkModel>(inner_->clone(), sink_);
}

}  // namespace perfbench
