#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench/lib/reporter.hpp"
#include "common/config.hpp"

namespace ehpc::bench {

/// One declared command-line flag of a bench. `default_value` is the single
/// source of truth for the flag's default: the runner materialises it into
/// the Config before the bench body runs, so drivers can read flags with any
/// fallback and still agree with the recorded summary config.
struct FlagSpec {
  std::string key;
  std::string default_value;
  std::string help;
};

/// A bench's range check of a flag value that parsed: unless `ok`, throw
/// ConfigError "bad value 'V' for 'KEY': expected EXPECTED" (the runner
/// reports it with the usage text and exit 2).
void check_flag(bool ok, const Config& cfg, const std::string& key,
                const std::string& expected);

/// A registered benchmark: metadata plus the body that fills a Reporter.
struct BenchDef {
  std::string name;
  std::string description;
  std::vector<FlagSpec> flags;
  /// key=value overrides applied (unless the user set the key) when running
  /// with the CI-sized `--quick` profile.
  std::vector<std::pair<std::string, std::string>> quick_overrides;
  std::function<void(Reporter&, const Config&)> fn;
};

/// Process-wide list of benches, populated by RegisterBench static objects
/// in each driver translation unit. A standalone driver binary registers
/// exactly one bench; `bench_run_all` links every driver and sees them all.
class Registry {
 public:
  static Registry& instance();

  /// Add a bench; names must be unique and registration order is kept.
  void add(BenchDef def);

  const std::vector<BenchDef>& benches() const { return benches_; }
  const BenchDef* find(const std::string& name) const;

 private:
  std::vector<BenchDef> benches_;
};

/// Static-initialiser hook: `const RegisterBench reg{{...}};` at namespace
/// scope in a driver .cpp registers the bench before main() runs.
struct RegisterBench {
  explicit RegisterBench(BenchDef def);
};

}  // namespace ehpc::bench
