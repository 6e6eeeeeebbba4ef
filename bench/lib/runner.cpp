#include "bench/lib/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "bench/lib/scenario_tables.hpp"
#include "bench/lib/timer.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "scenario/registry.hpp"

namespace ehpc::bench {

namespace {

const char* const kCommonFlagsHelp =
    "  csv=false         print tables as CSV instead of aligned text\n"
    "  out_dir=DIR       also write per-table CSV files and summary.json\n"
    "  quick=false       apply the CI-sized quick profile (--quick works too)\n"
    "  threads=1         worker threads for benches that sweep (0 = auto)\n";

void reject_positional(const Config& cfg) {
  if (cfg.positional().empty()) return;
  throw ConfigError("unexpected positional argument '" +
                    cfg.positional().front() +
                    "'; all options take the form key=value");
}

const char* const kRunAllUsage =
    "usage: bench_run_all [key=value ...]\n"
    "Run every registered bench and write CSVs + summary.json.\n\nflags:\n"
    "  out_dir=bench_out  output directory for CSVs and summary.json\n"
    "  quick=false        CI-sized quick profile (--quick works too)\n"
    "  only=SUBSTR        run only benches whose name contains SUBSTR\n"
    "  list=false         list registered benches and exit\n"
    "  seed=N             override the seed flag of benches that have one\n"
    "  threads=1          worker threads for benches that sweep (0 = auto)\n"
    "  list_scenarios=false  list registered scenarios and exit\n"
    "  scenario=NAME         run one registry scenario through the sweep\n"
    "                        engine instead of the bench registry; all\n"
    "                        scenario keys (num_jobs=, sweep_values=, ...)\n"
    "                        become overrides\n";

/// Render a sweep as one table per §4.3 metric (columns = policies), plus
/// the LB health columns for AMR and the recovery accounting when the plan
/// (or the sweep axis) injects failures.
void report_sweep(Reporter& rep, const scenario::ScenarioSpec& spec,
                  const scenario::SweepResult& sweep) {
  using M = elastic::RunMetrics;
  std::vector<MetricColumn> metrics{
      {"utilization", &M::utilization},
      {"total_time_s", &M::total_time_s},
      {"response_s", &M::weighted_response_s},
      {"completion_s", &M::weighted_completion_s}};
  if (spec.app == "amr") {
    metrics.push_back({"lb_post_ratio", &M::lb_post_ratio});
    metrics.push_back({"lb_migrations_per_step", &M::lb_migrations_per_step});
  }
  if (!spec.faults.empty() || spec.axis == scenario::SweepAxis::kFaultMtbf ||
      spec.axis == scenario::SweepAxis::kCheckpointPeriod) {
    metrics.push_back({"recovery_time_s", &M::recovery_time_s});
    metrics.push_back({"lost_work_s", &M::lost_work_s});
    metrics.push_back({"goodput", &M::goodput});
    metrics.push_back({"jobs_failed", &M::jobs_failed});
  }
  for (auto& metric : metrics) metric.title = metric.id;

  const bool axis_in_seconds =
      spec.axis == scenario::SweepAxis::kSubmissionGap ||
      spec.axis == scenario::SweepAxis::kRescaleGap;
  const std::string x_header =
      spec.axis == scenario::SweepAxis::kNone
          ? "x"
          : to_string(spec.axis) + (axis_in_seconds ? "_s" : "");
  add_policy_tables(rep, metrics, " per policy (" + spec.name + ")", x_header,
                    spec.axis, sweep.points, spec.policies);
  rep.note("scenario " + spec.name + ": " + spec.description);
  rep.note(describe(spec));
}

/// bench_run_all scenario=NAME: one registry scenario, with per-key
/// overrides, through the sweep engine.
int run_scenario(const Config& cfg) {
  // Bench-loop flags have no effect on a scenario run; reject them instead
  // of silently ignoring them.
  for (const char* key : {"quick", "only", "list"}) {
    if (cfg.has(key)) {
      std::cerr << "error: '" << key << "' does not apply to scenario mode\n";
      return 2;
    }
  }
  const scenario::ScenarioSpec spec = scenario::resolve_scenario(cfg);
  const int threads = cfg.get_int("threads", 1);

  std::cout << "[scenario] " << spec.name << " (threads=" << threads << ") ..."
            << std::flush;
  Reporter reporter("scenario_" + spec.name);
  Timer timer;
  scenario::SweepResult sweep;
  try {
    sweep = scenario::run_sweep(spec, threads);
  } catch (const std::exception& err) {
    std::cout << " FAILED\n";
    std::cerr << "error: scenario " << spec.name << ": " << err.what() << "\n";
    return 1;
  }
  reporter.set_wall_ms(timer.elapsed_ms());
  report_sweep(reporter, spec, sweep);

  std::map<std::string, std::string> config;
  for (const auto& key : scenario::spec_config_keys()) {
    if (auto value = cfg.get(key)) config[key] = *value;
  }
  config["scenario"] = spec.name;
  reporter.set_config(std::move(config));

  std::cout << " " << format_double(reporter.wall_ms(), 0) << " ms\n"
            << reporter.to_text();
  if (auto dir = cfg.get("out_dir")) {
    write_outputs({reporter}, *dir, "scenario");
    std::cout << "wrote " << *dir << "/summary.json\n";
  }
  return 0;
}

/// bench_run_all without scenario=: the bench registry loop.
int run_benches(const Config& cfg) {
  // Without scenario=, the spec keys would be parsed but never reach the
  // bench loop (which only forwards seed/threads) — keep unknown-key
  // strictness by rejecting them instead of silently ignoring them.
  for (const auto& key : scenario::spec_config_keys()) {
    if (key != "seed" && cfg.has(key)) {
      std::cerr << "error: '" << key
                << "' only applies to scenario mode; add scenario=NAME "
                   "(see --list-scenarios)\n";
      return 2;
    }
  }

  const auto& benches = Registry::instance().benches();
  if (cfg.get_bool("list", false)) {
    for (const auto& def : benches) {
      std::cout << def.name << ": " << def.description << "\n";
    }
    return 0;
  }

  const bool quick = cfg.get_bool("quick", false);
  const std::string only = cfg.get_or("only", "");
  const std::string out_dir = cfg.get_or("out_dir", "bench_out");

  std::vector<Reporter> runs;
  Timer total;
  for (const auto& def : benches) {
    if (!only.empty() && def.name.find(only) == std::string::npos) continue;
    Config bench_cfg;
    if (auto seed = cfg.get("seed")) {
      const bool has_seed_flag =
          std::any_of(def.flags.begin(), def.flags.end(),
                      [](const FlagSpec& f) { return f.key == "seed"; });
      if (has_seed_flag) bench_cfg.set("seed", *seed);
    }
    if (auto threads = cfg.get("threads")) bench_cfg.set("threads", *threads);
    std::cout << "[bench] " << def.name << " ..." << std::flush;
    try {
      runs.push_back(run_bench(def, bench_cfg, quick));
    } catch (const std::exception& err) {
      std::cout << " FAILED\n";
      std::cerr << "error: " << def.name << ": " << err.what() << "\n";
      return dynamic_cast<const ConfigError*>(&err) != nullptr ? 2 : 1;
    }
    const Reporter& rep = runs.back();
    std::cout << " " << format_double(rep.wall_ms(), 0) << " ms, "
              << rep.entries().size() << " tables\n";
  }

  if (runs.empty()) {
    std::cerr << "error: no bench matches only=" << only << "\n";
    return 1;
  }

  write_outputs(runs, out_dir, quick ? "quick" : "default");
  std::cout << "wrote " << out_dir << "/summary.json (" << runs.size()
            << " benches, " << format_double(total.elapsed_ms(), 0)
            << " ms total)\n";
  return 0;
}

}  // namespace

std::vector<std::string> allowed_keys(const BenchDef& def) {
  std::vector<std::string> keys;
  keys.reserve(def.flags.size() + 3);
  for (const auto& flag : def.flags) keys.push_back(flag.key);
  keys.push_back("csv");
  keys.push_back("out_dir");
  keys.push_back("quick");
  keys.push_back("threads");
  return keys;
}

std::string usage(const BenchDef& def) {
  std::string out = "usage: " + def.name + " [key=value ...]\n";
  out += def.description + "\n\nflags:\n";
  for (const auto& flag : def.flags) {
    std::string line = "  " + flag.key + "=" + flag.default_value;
    if (line.size() < 20) line.resize(20, ' ');
    out += line + "  " + flag.help + "\n";
  }
  out += "common flags:\n";
  out += kCommonFlagsHelp;
  return out;
}

Config parse_bench_config(const BenchDef& def, int argc,
                          const char* const* argv) {
  Config cfg = Config::from_args(argc, argv, allowed_keys(def));
  reject_positional(cfg);
  return cfg;
}

Reporter run_bench(const BenchDef& def, Config cfg, bool quick) {
  if (quick) {
    for (const auto& [key, value] : def.quick_overrides) {
      if (!cfg.has(key)) cfg.set(key, value);
    }
  }
  for (const auto& flag : def.flags) {
    if (!cfg.has(flag.key)) cfg.set(flag.key, flag.default_value);
  }

  std::map<std::string, std::string> effective;
  for (const auto& flag : def.flags) effective[flag.key] = *cfg.get(flag.key);

  Reporter reporter(def.name);
  Timer timer;
  def.fn(reporter, cfg);
  reporter.set_wall_ms(timer.elapsed_ms());
  reporter.set_config(std::move(effective));
  return reporter;
}

void write_outputs(const std::vector<Reporter>& runs,
                   const std::string& out_dir, const std::string& profile) {
  namespace fs = std::filesystem;
  fs::create_directories(out_dir);

  Json root = Json::object();
  root["schema_version"] = Json(1);
  root["profile"] = Json(profile);
  Json benches = Json::array();
  for (const auto& run : runs) {
    run.write_csvs(out_dir);
    benches.push_back(run.summary_json());
  }
  root["benches"] = std::move(benches);

  std::ofstream out(fs::path(out_dir) / "summary.json");
  EHPC_EXPECTS(out.good());
  out << root.dump(2);
  EHPC_ENSURES(out.good());
}

int standalone_main(int argc, const char* const* argv) {
  const auto& benches = Registry::instance().benches();
  EHPC_EXPECTS(benches.size() == 1);
  const BenchDef& def = benches.front();

  try {
    const Config cfg = parse_bench_config(def, argc, argv);
    const bool quick = cfg.get_bool("quick", false);
    const Reporter reporter = run_bench(def, cfg, quick);
    std::cout << (cfg.get_bool("csv", false) ? reporter.to_csv()
                                             : reporter.to_text());
    if (auto dir = cfg.get("out_dir")) {
      write_outputs({reporter}, *dir, quick ? "quick" : "default");
      std::cout << "wrote " << *dir << "/summary.json\n";
    }
  } catch (const ConfigError& err) {
    std::cerr << "error: " << err.what() << "\n\n" << usage(def);
    return 2;
  } catch (const std::exception& err) {
    std::cerr << "error: " << def.name << ": " << err.what() << "\n";
    return 1;
  }
  return 0;
}

int run_all_main(int argc, const char* const* argv) {
  std::vector<std::string> keys{"out_dir", "quick", "only",
                                "list",    "seed",  "threads"};
  for (const auto& key : scenario::scenario_config_keys()) keys.push_back(key);
  keys.push_back("list_scenarios");
  Config cfg;
  try {
    cfg = Config::from_args(argc, argv, keys);
    reject_positional(cfg);
  } catch (const ConfigError& err) {
    std::cerr << "error: " << err.what() << "\n\n" << kRunAllUsage;
    return 2;
  }

  try {
    if (cfg.get_bool("list_scenarios", false)) {
      std::cout << scenario::list_scenarios_text();
      return 0;
    }
    if (cfg.has("scenario")) return run_scenario(cfg);
    return run_benches(cfg);
  } catch (const ConfigError& err) {
    std::cerr << "error: " << err.what() << "\n";
    return 2;
  }
}

}  // namespace ehpc::bench
