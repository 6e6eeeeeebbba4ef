#include "digest.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffU;
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(const std::string& value) {
  add(static_cast<std::uint64_t>(value.size()));
  for (const char c : value) {
    hash_ ^= static_cast<unsigned char>(c);
    hash_ *= 1099511628211ULL;
  }
}

void Digest::add(const ehpc::elastic::RunMetrics& m) {
  for (const double v :
       {m.total_time_s, m.utilization, m.weighted_response_s,
        m.weighted_completion_s, m.lb_post_ratio, m.lb_migrations_per_step,
        m.lb_steps, m.failures, m.evictions, m.correlated_failures,
        m.storm_peak_restorers, m.storm_delay_s, m.jobs_failed,
        m.jobs_abandoned, m.jobs_timed_out, m.recovery_time_s, m.lost_work_s,
        m.goodput}) {
    add(v);
  }
}

void Digest::add(const ehpc::elastic::JobRecord& r) {
  add(static_cast<std::int64_t>(r.id));
  add(r.priority);
  for (const double v : {r.submit_time, r.start_time, r.complete_time,
                         r.lost_work_s, r.recovery_s}) {
    add(v);
  }
  add(r.failed);
  add(r.abandoned);
  add(r.timed_out);
}

void Digest::add(const ehpc::schedsim::SimResult& result) {
  add(result.metrics);
  add(static_cast<std::uint64_t>(result.jobs.size()));
  for (const auto& record : result.jobs) add(record);
  for (const std::string& name : result.trace.names()) {
    add(name);
    const auto& series = result.trace.series(name);
    add(static_cast<std::uint64_t>(series.size()));
    for (const auto& [t, v] : series) {
      add(t);
      add(v);
    }
  }
  add(result.rescale_count);
  const auto& s = result.stream;
  add(s.jobs_submitted);
  add(s.peak_live_jobs);
  for (const double v : {s.response_p50, s.response_p99, s.completion_p50,
                         s.completion_p99}) {
    add(v);
  }
}

void Digest::add(const ehpc::scenario::SweepResult& sweep) {
  add(static_cast<std::uint64_t>(sweep.points.size()));
  for (const auto& point : sweep.points) {
    add(point.x);
    for (const auto& [mode, metrics] : point.metrics) {
      add(static_cast<int>(mode));
      add(metrics);
    }
  }
}

void Digest::add(
    const std::map<ehpc::elastic::JobClass, ehpc::elastic::Workload>& w) {
  for (const auto& [cls, workload] : w) {
    add(static_cast<int>(cls));
    for (const auto& [x, y] : workload.time_per_step.points()) {
      add(x);
      add(y);
    }
    add(workload.lb.post_ratio);
    add(workload.lb.migrations_per_step);
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

}  // namespace perfbench
