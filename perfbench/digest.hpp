#pragma once

// Correctness digest: a 64-bit FNV-1a hash over the exact bit patterns of
// every simulated result a pass produces. Host time never enters it, so two
// builds that simulate identically print the same digest for a seed.

#include <cstdint>
#include <map>
#include <string>

#include "elastic/metrics.hpp"
#include "elastic/workload.hpp"
#include "scenario/sweep.hpp"
#include "schedsim/exec.hpp"

namespace perfbench {

class Digest {
 public:
  void add(std::uint64_t value);
  void add(std::int64_t value) { add(static_cast<std::uint64_t>(value)); }
  void add(int value) { add(static_cast<std::int64_t>(value)); }
  void add(bool value) { add(static_cast<std::uint64_t>(value ? 1 : 0)); }
  /// Hashes the IEEE-754 bit pattern: a last-bit change is a mismatch.
  void add(double value);
  void add(const std::string& value);

  void add(const ehpc::elastic::RunMetrics& m);
  void add(const ehpc::elastic::JobRecord& r);
  /// Metrics, job records, step traces, rescale count and stream stats.
  void add(const ehpc::schedsim::SimResult& result);
  void add(const ehpc::scenario::SweepResult& sweep);
  /// Calibrated step-time curves and LB profiles of every class.
  void add(const std::map<ehpc::elastic::JobClass, ehpc::elastic::Workload>& w);

  /// 16 lowercase hex digits.
  std::string hex() const;

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace perfbench
