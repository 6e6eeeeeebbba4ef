#pragma once

#include <string>
#include <vector>

#include "bench/lib/registry.hpp"
#include "bench/lib/reporter.hpp"

namespace ehpc::bench {

/// Flags every bench accepts on top of its own FlagSpecs: output selection
/// (`csv`, `out_dir`) and the CI-sized `quick` profile.
std::vector<std::string> allowed_keys(const BenchDef& def);

/// Usage text for one bench: description, declared flags with defaults and
/// help, and the common harness flags.
std::string usage(const BenchDef& def);

/// Parse argv strictly against the bench's declared flags; throws
/// ehpc::ConfigError (with the offending key) on anything unknown.
Config parse_bench_config(const BenchDef& def, int argc,
                          const char* const* argv);

/// Run one bench: apply quick-profile overrides and flag defaults for keys
/// the caller didn't set, execute the body, and record wall time plus the
/// effective config into the returned Reporter.
Reporter run_bench(const BenchDef& def, Config cfg, bool quick);

/// Write `summary.json` plus one CSV per table under `out_dir` for a set of
/// completed runs. `profile` is recorded in the summary ("quick"/"default").
void write_outputs(const std::vector<Reporter>& runs,
                   const std::string& out_dir, const std::string& profile);

/// main() body for a single-bench driver binary: runs the sole registered
/// bench with strict flag parsing; `csv=true` prints CSV instead of text and
/// `out_dir=DIR` additionally writes CSV files + summary.json. Returns 2 with
/// a usage message on bad flags or flag values, 1 if the bench fails.
int standalone_main(int argc, const char* const* argv);

/// main() body for bench_run_all: runs every registered bench (optionally
/// filtered with only=SUBSTR) and writes CSVs + summary.json to out_dir.
/// `seed=N` overrides the seed flag of every bench that declares one and
/// `threads=N` is forwarded to every bench (sweep benches fan out with it).
/// `scenario=NAME` instead runs one scenario-registry entry through the
/// sweep engine, with every scenario key as an override;
/// `list_scenarios=true` lists the registry.
int run_all_main(int argc, const char* const* argv);

}  // namespace ehpc::bench
