#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "trace/source.hpp"

namespace ehpc::trace {

/// Per-job limits stamped onto every yielded job unless the trace itself
/// carries a value (CSV rows may override per job). Negative = unset.
struct JobDefaults {
  double queue_timeout_s = -1.0;
  double task_timeout_s = -1.0;
  int max_failed_nodes = -1;
};

/// Streams a CSV job trace without materializing it. Line format:
///
///   id,class,priority,submit_time[,queue_timeout[,task_timeout[,max_failed_nodes]]]
///
/// where class is small|medium|large|xlarge. Blank lines and lines starting
/// with '#' are skipped. Parsing is strict: a malformed numeric field, an
/// unknown class, a missing column or a submit time that goes backwards is a
/// hard error naming the offending line number — never a silent 0 (the bug
/// the ad-hoc atoi/atof loader in examples/trace_replay.cpp used to have).
/// So is a value the replay cannot use: an id or priority outside
/// [0, INT_MAX], a max_failed_nodes outside int, a NaN, infinite or
/// negative submit time, or a NaN timeout.
class CsvTraceSource final : public TraceSource {
 public:
  explicit CsvTraceSource(const std::string& path, JobDefaults defaults = {});

  std::optional<schedsim::SubmittedJob> next() override;

 private:
  std::string path_;
  std::ifstream in_;
  JobDefaults defaults_;
  long line_number_ = 0;
  double last_submit_time_ = 0.0;
  bool any_yielded_ = false;
};

/// Deterministic synthetic arrival stream of arbitrary length. Class and
/// priority draws come from a counter-based splitmix64 hash of (seed, index)
/// rather than a sequential RNG, so job i's identity is a pure function of
/// the config — independent of how much of the stream any consumer pulled.
struct SyntheticTraceConfig {
  long num_jobs = 1000;
  double submission_gap_s = 1.0;
  unsigned seed = 2025;
  JobDefaults defaults;
};

class SyntheticTraceSource final : public TraceSource {
 public:
  explicit SyntheticTraceSource(SyntheticTraceConfig config);

  std::optional<schedsim::SubmittedJob> next() override;

 private:
  SyntheticTraceConfig config_;
  long index_ = 0;
};

/// Recurring submissions of one template job, prun cron-manager style: one
/// copy at phase, phase + period, ... up to and including end. Each copy is
/// a fresh job id (base + k) so resubmissions are independent jobs.
struct CronTraceConfig {
  double period_s = 600.0;
  double phase_s = 0.0;  ///< first submission time
  double end_s = 3600.0; ///< last eligible submission time (inclusive)
  elastic::JobClass job_class = elastic::JobClass::kMedium;
  int priority = 3;
  /// Id of occurrence k is `id_base + k`; the default keeps cron ids out of
  /// the way of CSV/synthetic ids, which count from 0.
  elastic::JobId id_base = 1 << 28;
  JobDefaults defaults;
};

class CronTraceSource final : public TraceSource {
 public:
  explicit CronTraceSource(CronTraceConfig config);

  std::optional<schedsim::SubmittedJob> next() override;

 private:
  CronTraceConfig config_;
  long occurrence_ = 0;
};

/// Merges child streams into one submit-time-ordered stream (ties broken by
/// job id for determinism). Buffers exactly one pending job per child, so
/// composition preserves the O(1)-per-source memory of its parts.
class CompositeTraceSource final : public TraceSource {
 public:
  explicit CompositeTraceSource(
      std::vector<std::unique_ptr<TraceSource>> children);

  std::optional<schedsim::SubmittedJob> next() override;

 private:
  std::vector<std::unique_ptr<TraceSource>> children_;
  std::vector<std::optional<schedsim::SubmittedJob>> heads_;
};

/// Counter-based hash used by SyntheticTraceSource (splitmix64 over a
/// mixed-in lane), exposed for tests that pin the draw function.
std::uint64_t trace_hash(std::uint64_t seed, std::uint64_t index,
                         std::uint64_t lane);

}  // namespace ehpc::trace
