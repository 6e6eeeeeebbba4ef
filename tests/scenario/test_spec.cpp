#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "scenario/registry.hpp"

namespace ehpc::scenario {
namespace {

using elastic::PolicyMode;

Config config_of(std::vector<const char*> args) {
  args.insert(args.begin(), "test");
  return Config::from_args(static_cast<int>(args.size()), args.data());
}

/// Parse a describe()-style "key=value key=value" line.
Config config_of_line(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(token);
  std::vector<const char*> args;
  for (const auto& t : tokens) args.push_back(t.c_str());
  return config_of(args);
}

/// A valid spec with every key away from its default, fractional wherever
/// the field type allows.
ScenarioSpec every_key_set() {
  ScenarioSpec s;
  s.substrate = Substrate::kCluster;
  s.nodes = 6;
  s.cpus_per_node = 12;
  s.num_jobs = 9;
  s.pods_per_job = 3;
  s.submission_gap_s = 12.25;
  s.rescale_gap_s = 0.4;
  s.calibrated = false;
  s.app = "graph";
  s.refine_rate = 0.3125;  // amr-only: not rendered for a graph spec
  s.graph_vertices = 1000;
  s.graph_skew = 0.8125;
  s.lb_strategy = "commrefine";
  s.net_model = "dragonfly";
  s.net_oversub = 2.5;
  s.faults.crash_times = {100.5, 900.0625};
  s.faults.crash_mtbf_s = 600.5;
  s.faults.evict_times = {700.75};
  s.faults.straggler_at_s = 50.5;
  s.faults.straggler_factor = 1.755;
  s.faults.checkpoint_period_s = 300.5;
  s.faults.detection_s = 2.5;
  s.faults.max_failed_nodes = 2;
  s.faults.domain_sizes = {24, 24, 24};
  s.faults.domain_crashes = {{500.1234, 1}};
  s.faults.failure_trace_path = "failures.csv";
  s.faults.restore_bandwidth = 1.5;
  s.trace_path = "jobs.csv";
  s.trace_jobs = 500;
  s.cron_period_s = 3600.5;
  s.cron_phase_s = 10.5;
  s.cron_end_s = 7200.5;
  s.cron_class = "large";
  s.cron_priority = 5;
  s.queue_timeout_s = 1800.5;
  s.task_timeout_s = 900.5;
  s.policies = {PolicyMode::kElastic, PolicyMode::kMoldable};
  s.axis = SweepAxis::kNetOversub;
  s.axis_values = {1.5, 2.0001};
  s.repeats = 7;
  s.seed = 4000000000u;
  s.validate();
  return s;
}

/// The help entry of `key`: its "  key=..." line plus continuation lines.
std::string help_entry(const std::string& help, const std::string& key) {
  std::istringstream in(help);
  std::string line;
  std::string entry;
  while (std::getline(in, line)) {
    if (line.rfind("  " + key + "=", 0) == 0) {
      entry = line;
    } else if (!entry.empty() && line.rfind("   ", 0) == 0) {
      entry += "\n" + line;
    } else if (!entry.empty()) {
      break;
    }
  }
  return entry;
}

TEST(ScenarioSpec, DefaultsMatchThePaperSetup) {
  const ScenarioSpec spec;
  EXPECT_EQ(spec.substrate, Substrate::kSchedSim);
  EXPECT_EQ(spec.total_slots(), 64);  // 4 nodes x 16 vCPUs
  EXPECT_EQ(spec.num_jobs, 16);
  EXPECT_DOUBLE_EQ(spec.submission_gap_s, 90.0);
  EXPECT_DOUBLE_EQ(spec.rescale_gap_s, 180.0);
  EXPECT_EQ(spec.policies.size(), 4u);
  EXPECT_EQ(spec.repeats, 100);
  EXPECT_EQ(spec.seed, 2025u);
  EXPECT_NO_THROW(spec.validate());
}

TEST(ScenarioSpec, ConfigOverlaysEveryKey) {
  const auto cfg = config_of(
      {"substrate=cluster", "nodes=2", "cpus_per_node=8", "num_jobs=5",
       "submission_gap=10", "rescale_gap=20", "calibrated=false",
       "policies=elastic,moldable", "sweep_axis=submission_gap",
       "sweep_values=0,30,60", "repeats=7", "seed=11"});
  const ScenarioSpec spec = spec_from_config(cfg);
  EXPECT_EQ(spec.substrate, Substrate::kCluster);
  EXPECT_EQ(spec.total_slots(), 16);
  EXPECT_EQ(spec.num_jobs, 5);
  EXPECT_DOUBLE_EQ(spec.submission_gap_s, 10.0);
  EXPECT_DOUBLE_EQ(spec.rescale_gap_s, 20.0);
  EXPECT_FALSE(spec.calibrated);
  ASSERT_EQ(spec.policies.size(), 2u);
  EXPECT_EQ(spec.policies[0], PolicyMode::kElastic);
  EXPECT_EQ(spec.policies[1], PolicyMode::kMoldable);
  EXPECT_EQ(spec.axis, SweepAxis::kSubmissionGap);
  EXPECT_EQ(spec.axis_values, (std::vector<double>{0.0, 30.0, 60.0}));
  EXPECT_EQ(spec.repeats, 7);
  EXPECT_EQ(spec.seed, 11u);
}

TEST(ScenarioSpec, UnsetKeysKeepTheBaseSpec) {
  ScenarioSpec base;
  base.num_jobs = 42;
  base.substrate = Substrate::kCluster;
  const ScenarioSpec spec = spec_from_config(config_of({"seed=3"}), base);
  EXPECT_EQ(spec.num_jobs, 42);
  EXPECT_EQ(spec.substrate, Substrate::kCluster);
  EXPECT_EQ(spec.seed, 3u);
}

TEST(ScenarioSpec, PoliciesAllExpandsToAllFour) {
  const ScenarioSpec spec = spec_from_config(config_of({"policies=all"}));
  EXPECT_EQ(spec.policies.size(), 4u);
}

TEST(ScenarioSpec, BadValuesRaiseConfigError) {
  EXPECT_THROW(spec_from_config(config_of({"substrate=cloud"})), ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"sweep_axis=priority"})),
               ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"policies=greedy"})), ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"policies="})), ConfigError);
  EXPECT_THROW(
      spec_from_config(config_of({"sweep_axis=rescale_gap",
                                  "sweep_values=1,x"})),
      ConfigError);
}

TEST(ScenarioSpec, ValidateRejectsInconsistentSpecs) {
  ScenarioSpec spec;
  spec.num_jobs = 0;
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = ScenarioSpec{};
  spec.axis = SweepAxis::kRescaleGap;  // no values
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = ScenarioSpec{};
  spec.axis_values = {1.0};  // values without an axis
  EXPECT_THROW(spec.validate(), ConfigError);

  spec = ScenarioSpec{};
  spec.policies.clear();
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(ScenarioSpec, BadScalarValuesRaiseConfigError) {
  EXPECT_THROW(spec_from_config(config_of({"rescale_gap=12abc"})),
               ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"calibrated=ture"})), ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"nodes=4.5"})), ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"seed=-1"})), ConfigError);
  EXPECT_THROW(spec_from_config(config_of({"seed=4294967296"})), ConfigError);
  EXPECT_EQ(spec_from_config(config_of({"seed=4294967295"})).seed,
            4294967295u);
}

TEST(ScenarioSpec, DescribeMatchesRecordedRegistryConfigs) {
  // describe() of every registry scenario exactly as bench configs and
  // --list-scenarios recorded it before the key table existed.
  const std::vector<std::pair<std::string, std::string>> expected{
      {"policy_compare",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=100 seed=2025"},
      {"fig7_submission_gap",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=submission_gap sweep_values=0,30,60,90,120,180,240,300 "
       "repeats=100 seed=2025"},
      {"fig8_rescale_gap",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=rescale_gap sweep_values=0,60,120,180,300,600,900,1200 "
       "repeats=100 seed=2025"},
      {"table1",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=1 seed=2025"},
      {"fig9_cluster",
       "substrate=cluster nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=1 seed=2025"},
      {"quickstart",
       "substrate=cluster nodes=4 cpus_per_node=16 num_jobs=3 "
       "submission_gap=90 rescale_gap=30 calibrated=true app=jacobi "
       "policies=elastic sweep_axis=none repeats=1 seed=2025"},
      {"burst_arrival",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=32 "
       "submission_gap=0 rescale_gap=180 calibrated=true app=jacobi "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=20 seed=2025"},
      {"amr_imbalance",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=amr "
       "refine_rate=0.12 lb_strategy=greedy "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=refine_rate sweep_values=0,0.06,0.12,0.24 repeats=20 "
       "seed=2025"},
      {"amr_rescale",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=30 rescale_gap=180 calibrated=true app=amr "
       "refine_rate=0.12 lb_strategy=greedy "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=rescale_gap sweep_values=0,60,180,600 repeats=20 "
       "seed=2025"},
      {"amr_lb_ablation",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=amr "
       "refine_rate=0.12 lb_strategy=greedy policies=elastic "
       "sweep_axis=lb_strategy sweep_values=0,1,2 repeats=20 seed=2025"},
      {"graph_superstep",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=graph "
       "graph_vertices=4096 graph_skew=0.8 lb_strategy=greedy "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=graph_skew sweep_values=0,0.5,0.9 repeats=20 seed=2025"},
      {"graph_lb_ablation",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=graph "
       "graph_vertices=4096 graph_skew=0.9 lb_strategy=greedy "
       "net_model=fattree net_oversub=4 policies=elastic "
       "sweep_axis=lb_strategy sweep_values=1,3 repeats=20 seed=2025"},
      {"fault_recovery",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "fault_times=400,1100 evict_times=700 checkpoint_period=300 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=20 seed=2025"},
      {"fault_churn",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "checkpoint_period=300 max_failed_nodes=2 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=fault_mtbf sweep_values=600,1200,2400,4800 repeats=20 "
       "seed=2025"},
      {"fault_lb_ablation",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=amr "
       "refine_rate=0.12 lb_strategy=greedy fault_mtbf=900 "
       "checkpoint_period=300 policies=elastic sweep_axis=lb_strategy "
       "sweep_values=0,1,2 repeats=20 seed=2025"},
      {"fault_correlated",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=90 rescale_gap=180 calibrated=true app=jacobi "
       "checkpoint_period=300 fault_domains=16,16,16,16 "
       "fault_domain_crash_times=500:1,1300:3 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=20 seed=2025"},
      {"fault_storm",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=24 "
       "submission_gap=30 rescale_gap=180 calibrated=true app=jacobi "
       "checkpoint_period=200 fault_domains=32,32 "
       "fault_domain_crash_times=600:0 restore_bandwidth=2 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=20 seed=2025"},
      {"k8s_scale",
       "substrate=cluster nodes=1000 cpus_per_node=16 num_jobs=100 "
       "pods_per_job=100 submission_gap=10 rescale_gap=300 "
       "calibrated=false app=jacobi policies=min_replicas sweep_axis=none "
       "repeats=1 seed=2025"},
      {"trace_replay",
       "substrate=schedsim nodes=4 cpus_per_node=16 num_jobs=16 "
       "submission_gap=60 rescale_gap=180 calibrated=false app=jacobi "
       "trace_jobs=2000 queue_timeout=3600 task_timeout=900 "
       "policies=min_replicas,max_replicas,moldable,elastic "
       "sweep_axis=none repeats=3 seed=2025"},
  };
  for (const auto& [name, text] : expected) {
    EXPECT_EQ(describe(ScenarioRegistry::instance().require(name)), text)
        << name;
  }
}

TEST(ScenarioSpec, DescribeRoundTripsLosslessly) {
  std::vector<ScenarioSpec> specs =
      ScenarioRegistry::instance().scenarios();
  specs.push_back(every_key_set());
  for (const ScenarioSpec& spec : specs) {
    const std::string text = describe(spec);
    EXPECT_EQ(describe(spec_from_config(config_of_line(text))), text) << spec.name;
  }

  const ScenarioSpec s = every_key_set();
  const std::string text = describe(s);
  EXPECT_NE(text.find(" rescale_gap=0.4 "), std::string::npos) << text;
  EXPECT_NE(text.find(" fault_detection=2.5 "), std::string::npos) << text;
  const ScenarioSpec back = spec_from_config(config_of_line(text));
  EXPECT_EQ(back.submission_gap_s, s.submission_gap_s);
  EXPECT_EQ(back.rescale_gap_s, s.rescale_gap_s);
  EXPECT_EQ(back.graph_skew, s.graph_skew);
  EXPECT_EQ(back.net_oversub, s.net_oversub);
  EXPECT_EQ(back.faults.crash_times, s.faults.crash_times);
  EXPECT_EQ(back.faults.crash_mtbf_s, s.faults.crash_mtbf_s);
  EXPECT_EQ(back.faults.evict_times, s.faults.evict_times);
  EXPECT_EQ(back.faults.straggler_at_s, s.faults.straggler_at_s);
  EXPECT_EQ(back.faults.straggler_factor, s.faults.straggler_factor);
  EXPECT_EQ(back.faults.checkpoint_period_s, s.faults.checkpoint_period_s);
  EXPECT_EQ(back.faults.detection_s, s.faults.detection_s);
  ASSERT_EQ(back.faults.domain_crashes.size(), 1u);
  EXPECT_EQ(back.faults.domain_crashes[0].time_s,
            s.faults.domain_crashes[0].time_s);
  EXPECT_EQ(back.faults.restore_bandwidth, s.faults.restore_bandwidth);
  EXPECT_EQ(back.cron_period_s, s.cron_period_s);
  EXPECT_EQ(back.cron_phase_s, s.cron_phase_s);
  EXPECT_EQ(back.cron_end_s, s.cron_end_s);
  EXPECT_EQ(back.queue_timeout_s, s.queue_timeout_s);
  EXPECT_EQ(back.task_timeout_s, s.task_timeout_s);
  EXPECT_EQ(back.axis_values, s.axis_values);
  EXPECT_EQ(back.seed, s.seed);
}

TEST(ScenarioSpec, HelpNamesEveryKeyWithItsDefault) {
  const std::string help = spec_config_help();
  const ScenarioSpec defaults;
  const std::string rendered = " " + describe(defaults) + " ";
  for (const auto& key : spec_config_keys()) {
    const std::string entry = help_entry(help, key);
    ASSERT_FALSE(entry.empty()) << key << " has no help line";
    const auto eq = entry.find('=');
    const std::string value =
        entry.substr(eq + 1, entry.find(' ', eq) - eq - 1);
    // Where describe() renders the default, the help shows the same text.
    const auto at = rendered.find(" " + key + "=");
    if (at != std::string::npos) {
      const auto start = at + key.size() + 2;
      EXPECT_EQ(value, rendered.substr(start, rendered.find(' ', start) -
                                                  start))
          << key;
    }
    // Setting a key to its advertised default changes nothing.
    const std::string arg = key + "=" + value;
    EXPECT_EQ(describe(spec_from_config(config_of({arg.c_str()}))),
              describe(defaults))
        << arg;
  }
  for (const char* line : {"  refine_rate=0.12 ", "  graph_skew=0.8 ",
                           "  fault_detection=5 ", "  straggler_at=-1 ",
                           "  queue_timeout=-1 ", "  seed=2025 "}) {
    EXPECT_NE(help.find(line), std::string::npos) << line;
  }
}

TEST(ScenarioSpec, HelpListsEverySweepAxis) {
  const std::string entry = help_entry(spec_config_help(), "sweep_axis");
  for (const SweepAxis axis :
       {SweepAxis::kNone, SweepAxis::kSubmissionGap, SweepAxis::kRescaleGap,
        SweepAxis::kRefineRate, SweepAxis::kLbStrategy, SweepAxis::kFaultMtbf,
        SweepAxis::kCheckpointPeriod, SweepAxis::kGraphSkew,
        SweepAxis::kNetOversub}) {
    const std::string name = to_string(axis);
    EXPECT_NE(name, "?");
    EXPECT_EQ(sweep_axis_from_string(name), axis) << name;
    EXPECT_NE(entry.find(" " + name), std::string::npos) << name << "\n"
                                                         << entry;
  }
}

TEST(ScenarioSpec, SweepValuesSetTheBoundKey) {
  ScenarioSpec spec;
  spec.axis = SweepAxis::kRescaleGap;
  set_axis_value(spec, 42.5);
  EXPECT_EQ(spec.rescale_gap_s, 42.5);
  spec.axis = SweepAxis::kCheckpointPeriod;
  set_axis_value(spec, 300.0);
  EXPECT_EQ(spec.faults.checkpoint_period_s, 300.0);
  spec.axis = SweepAxis::kLbStrategy;
  set_axis_value(spec, 3.0);
  EXPECT_EQ(spec.lb_strategy, "commrefine");
  EXPECT_THROW(set_axis_value(spec, 4.0), ConfigError);
  EXPECT_THROW(set_axis_value(spec, 0.5), ConfigError);
}

TEST(ScenarioSpec, DescribeRoundTripsThroughConfigKeys) {
  ScenarioSpec spec;
  spec.axis = SweepAxis::kSubmissionGap;
  spec.axis_values = {0, 30};
  const std::string text = describe(spec);
  // Every token of the description must be a known config key.
  std::istringstream in(text);
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    ASSERT_NE(eq, std::string::npos) << token;
    const std::string key = token.substr(0, eq);
    const auto& keys = spec_config_keys();
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end()) << key;
  }
}

}  // namespace
}  // namespace ehpc::scenario
