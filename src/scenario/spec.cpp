#include "scenario/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>

#include "charm/load_balancer.hpp"
#include "elastic/workload.hpp"

namespace ehpc::scenario {

using elastic::PolicyMode;
using schedsim::FaultPlan;

std::string to_string(Substrate s) {
  switch (s) {
    case Substrate::kSchedSim: return "schedsim";
    case Substrate::kCluster: return "cluster";
  }
  return "?";
}

Substrate substrate_from_string(const std::string& name) {
  if (name == "schedsim" || name == "sim") return Substrate::kSchedSim;
  if (name == "cluster" || name == "k8s") return Substrate::kCluster;
  throw ConfigError("unknown substrate '" + name +
                    "'; known: schedsim cluster");
}

namespace {

// ---- parsing a key's text onto a field, by field type ----

using Text = const std::string&;

void parse(Text k, Text v, int& out) { out = Config::parse_int(k, v); }
void parse(Text k, Text v, long& out) { out = Config::parse_int(k, v); }
void parse(Text k, Text v, unsigned& out) {
  out = Config::parse_unsigned(k, v);
}
void parse(Text k, Text v, double& out) { out = Config::parse_double(k, v); }
void parse(Text k, Text v, bool& out) { out = Config::parse_bool(k, v); }
void parse(Text, Text v, std::string& out) { out = v; }
void parse(Text, Text v, Substrate& out) { out = substrate_from_string(v); }
void parse(Text, Text v, SweepAxis& out) { out = sweep_axis_from_string(v); }
void parse(Text, Text v, PolicyMode& out) {
  try {
    out = elastic::policy_mode_from_string(v);
  } catch (const std::exception&) {
    throw ConfigError("unknown policy '" + v +
                      "'; known: min_replicas max_replicas moldable elastic "
                      "(or 'all')");
  }
}
void parse(Text k, Text v, schedsim::DomainCrash& out) {
  const auto colon = v.find(':');
  if (colon == std::string::npos) {
    throw ConfigError("bad " + k + " entry '" + v + "' (expected time:domain)");
  }
  out = {Config::parse_double(k, v.substr(0, colon)),
         Config::parse_int(k, v.substr(colon + 1))};
}
/// A comma-separated list, item by item; empty items are skipped.
template <class T>
void parse(Text k, Text v, std::vector<T>& out) {
  if constexpr (std::is_same_v<T, PolicyMode>) {
    if (v == "all") {  // the default list holds every policy
      out = ScenarioSpec{}.policies;
      return;
    }
  }
  out.clear();
  std::istringstream in(v);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) parse(k, item, out.emplace_back());
  }
}

// ---- rendering a field for describe() and the help defaults ----

/// The one number renderer: the shortest fixed-point text that parses back
/// to exactly `v` ("180", "0.12", "0.4"), so recorded configs are lossless.
std::string show(double v) {
  char buf[400];  // fixed notation of the extreme doubles needs ~330 chars
  return std::string(
      buf, std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed)
               .ptr);
}
std::string show(int v) { return std::to_string(v); }
std::string show(long v) { return std::to_string(v); }
std::string show(unsigned v) { return std::to_string(v); }
std::string show(bool v) { return v ? "true" : "false"; }
std::string show(const std::string& v) { return v; }
std::string show(Substrate v) { return to_string(v); }
std::string show(SweepAxis v) { return to_string(v); }
std::string show(PolicyMode v) { return elastic::to_string(v); }
std::string show(const schedsim::DomainCrash& v) {
  return show(v.time_s) + ':' + std::to_string(v.domain);
}
template <class T>
std::string show(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) {
    if (!out.empty()) out += ',';
    out += show(item);
  }
  return out;
}

// ---- the key table ----

using Pred = bool (*)(const ScenarioSpec&);
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr bool kRecalibrates = true;

/// Accepted numeric range of a key (one-sided ranges start at 0).
struct Range {
  double lo = -kInf;
  double hi = kInf;
  bool lo_open = false;

  /// "" when `v` is in range, else what is wrong ("must be positive").
  std::string problem(double v) const {
    if ((lo_open ? v > lo : v >= lo) && v <= hi) return "";
    if (hi == kInf) {
      return lo_open ? "must be positive" : "must be non-negative";
    }
    return "must be in [" + show(lo) + ", " + show(hi) + "]";
  }
};

/// Optional parts of a table entry, set by chaining.
struct Opts {
  Pred shown = nullptr;              ///< render-when predicate
  bool unless_default = false;       ///< render only when not the default
  Range range;                       ///< numeric keys
  std::vector<std::string> choices;  ///< allowed values of a string key
  SweepAxis axis = SweepAxis::kNone;
  bool recalibrates = false;    ///< the axis's points re-calibrate
  bool sweep_positive = false;  ///< sweep values must also be positive

  Opts& when(Pred p) { shown = p; return *this; }
  Opts& when_set() { unless_default = true; return *this; }
  Opts& in(double lo, double hi) { range = {lo, hi, false}; return *this; }
  Opts& non_negative() { return in(0.0, kInf); }
  Opts& positive() { range = {0.0, kInf, true}; return *this; }
  Opts& one_of(std::vector<std::string> v) {
    choices = std::move(v);
    return *this;
  }
  Opts& sweeps(SweepAxis a, bool recalibrating = false) {
    axis = a;
    recalibrates = recalibrating;
    return *this;
  }
  Opts& positive_sweeps() { sweep_positive = true; return *this; }
};

/// Everything the spec functions know about one config key.
struct Key {
  std::string name;
  std::string help;
  Opts opts;
  /// Parse the key's text onto the spec's field.
  std::function<void(ScenarioSpec&, const std::string&)> parse;
  std::function<std::string(const ScenarioSpec&)> render;
  /// describe() renders the key only when this holds, so a spec that
  /// leaves a newer key unset describes byte-identically to configs
  /// recorded before the key existed.
  std::function<bool(const ScenarioSpec&)> shown;
  /// What is wrong with the spec's value, without the key name; "" = fine.
  std::function<std::string(const ScenarioSpec&)> check;
  /// Set the field from one sweep value (axis keys).
  std::function<void(ScenarioSpec&, double)> set_value;
};

/// A table entry bound to `member` of the spec or of its fault plan. Fault
/// keys render only inside the fault group (a non-empty plan).
template <class Owner, class T>
Key field(std::string name, T Owner::*member, std::string help,
          Opts opts = {}) {
  const auto at = [member](auto& spec) -> auto& {
    if constexpr (std::is_same_v<Owner, FaultPlan>) {
      return spec.faults.*member;
    } else {
      return spec.*member;
    }
  };
  Key key{name,
          std::move(help),
          opts,
          [at, name](ScenarioSpec& s, Text v) { parse(name, v, at(s)); },
          [at](const ScenarioSpec& s) { return show(at(s)); },
          [at, opts](const ScenarioSpec& s) {
            static const ScenarioSpec defaults;
            if (std::is_same_v<Owner, FaultPlan> && s.faults.empty()) {
              return false;
            }
            if (opts.unless_default && at(s) == at(defaults)) return false;
            return opts.shown == nullptr || opts.shown(s);
          },
          {},
          {}};
  if constexpr (std::is_arithmetic_v<T>) {
    key.check = [at, range = opts.range](const ScenarioSpec& s) {
      return range.problem(static_cast<double>(at(s)));
    };
    key.set_value = [at](ScenarioSpec& s, double v) {
      at(s) = static_cast<T>(v);
    };
  } else if constexpr (std::is_same_v<T, std::string>) {
    const auto& choices = key.opts.choices;
    key.check = [at, choices](const ScenarioSpec& s) {
      if (choices.empty() ||
          std::find(choices.begin(), choices.end(), at(s)) != choices.end()) {
        return std::string();
      }
      std::string known;
      for (const auto& c : choices) known += " " + c;
      return "'" + at(s) + "' is unknown; known:" + known;
    };
    // A string axis sweeps indices into its choices.
    key.set_value = [at, name, choices](ScenarioSpec& s, double v) {
      if (std::floor(v) != v || v < 0.0 ||
          v >= static_cast<double>(choices.size())) {
        throw ConfigError(name + " sweep values index its known names: "
                          "integers in [0, " +
                          std::to_string(choices.size()) + ")");
      }
      at(s) = choices[static_cast<std::size_t>(v)];
    };
  }
  return key;
}

struct KeyTable {
  std::vector<Key> keys;            ///< in describe() order
  std::vector<std::string> names;   ///< of `keys`
  std::vector<const Key*> by_axis;  ///< indexed by SweepAxis; kNone = null
};

KeyTable build_key_table() {
  using S = ScenarioSpec;
  const Pred amr = [](const S& s) { return s.app == "amr"; };
  const Pred graph = [](const S& s) { return s.app == "graph"; };
  const Pred irregular = [](const S& s) {
    return s.app == "amr" || s.app == "graph";
  };
  const Pred topology = [](const S& s) { return s.net_model != "flat"; };
  const Pred straggler = [](const S& s) {
    return s.faults.straggler_at_s >= 0.0;
  };
  const Pred cron = [](const S& s) { return s.cron_period_s > 0.0; };
  KeyTable t;
  t.keys = {
      field("substrate", &S::substrate, "schedsim | cluster (k8s emulation)"),
      field("nodes", &S::nodes, "emulated cluster nodes", Opts().positive()),
      field("cpus_per_node", &S::cpus_per_node, "vCPUs per node",
            Opts().positive()),
      field("num_jobs", &S::num_jobs, "jobs per random mix",
            Opts().positive()),
      field("pods_per_job", &S::pods_per_job,
            "force rigid job width (min=max replicas); 0 keeps class-driven "
            "widths",
            Opts().when_set().non_negative()),
      field("submission_gap", &S::submission_gap_s,
            "seconds between submissions",
            Opts().non_negative().sweeps(SweepAxis::kSubmissionGap)),
      field("rescale_gap", &S::rescale_gap_s, "T_rescale_gap in seconds",
            Opts().non_negative().sweeps(SweepAxis::kRescaleGap)),
      field("calibrated", &S::calibrated,
            "minicharm-calibrated step-time curves"),
      field("app", &S::app,
            "jacobi | amr (adaptive mesh) | graph (power-law graph "
            "supersteps)",
            Opts().one_of({"jacobi", "amr", "graph"})),
      field("refine_rate", &S::refine_rate,
            "AMR refinement-event rate per patch/iter",
            Opts().when(amr).in(0.0, 0.5).sweeps(SweepAxis::kRefineRate,
                                                 kRecalibrates)),
      field("graph_vertices", &S::graph_vertices,
            "graph app vertex count (medium class)",
            Opts().when(graph).in(256, 1 << 22)),
      field("graph_skew", &S::graph_skew,
            "power-law exponent of the degree law",
            Opts().when(graph).in(0.0, 1.5).sweeps(SweepAxis::kGraphSkew,
                                                   kRecalibrates)),
      field("lb_strategy", &S::lb_strategy,
            "runtime LB: null | greedy | refine | commrefine "
            "(communication-aware)",
            Opts()
                .when(irregular)
                .one_of(charm::load_balancer_names())
                .sweeps(SweepAxis::kLbStrategy, kRecalibrates)),
      field("net_model", &S::net_model,
            "flat | fattree | dragonfly (graph only; topology models add "
            "link contention)",
            Opts().when_set().one_of({"flat", "fattree", "dragonfly"})),
      field("net_oversub", &S::net_oversub,
            "core-level oversubscription factor (needs "
            "net_model=fattree|dragonfly)",
            Opts().when(topology).in(1.0, 64.0).sweeps(SweepAxis::kNetOversub,
                                                       kRecalibrates)),
      field("fault_times", &FaultPlan::crash_times,
            "comma list of node-crash virtual times (s)", Opts().when_set()),
      field("fault_mtbf", &FaultPlan::crash_mtbf_s,
            "deterministic crash chain period (s); 0 off",
            Opts().when_set().sweeps(SweepAxis::kFaultMtbf).positive_sweeps()),
      field("evict_times", &FaultPlan::evict_times,
            "comma list of pod-eviction virtual times (s)", Opts().when_set()),
      field("straggler_at", &FaultPlan::straggler_at_s,
            "time a straggler PE appears (s); <0 off", Opts().when(straggler)),
      field("straggler_factor", &FaultPlan::straggler_factor,
            "step-time multiplier of the straggler job",
            Opts().when(straggler)),
      field("checkpoint_period", &FaultPlan::checkpoint_period_s,
            "disk checkpoint cadence (s); 0 = none",
            Opts()
                .when_set()
                .sweeps(SweepAxis::kCheckpointPeriod)
                .positive_sweeps()),
      field("fault_detection", &FaultPlan::detection_s,
            "crash detection delay before recovery (s)", Opts().when_set()),
      field("max_failed_nodes", &FaultPlan::max_failed_nodes,
            "per-job crash budget (prun); <0 unlimited",
            Opts().when([](const S& s) {
              return s.faults.max_failed_nodes >= 0;
            })),
      field("fault_domains", &FaultPlan::domain_sizes,
            "comma list of failure-domain slot counts (consecutive slot "
            "groups, e.g. racks)",
            Opts().when_set()),
      field("fault_domain_crash_times", &FaultPlan::domain_crashes,
            "comma list of time:domain correlated crashes (kill every PE of "
            "the domain)",
            Opts().when_set()),
      field("failure_trace_path", &FaultPlan::failure_trace_path,
            "CSV failure trace (time_s,kind[,domain])", Opts().when_set()),
      field("restore_bandwidth", &FaultPlan::restore_bandwidth,
            "concurrent restores sharing the restore path before it "
            "saturates; 0 = unlimited",
            Opts().when_set()),
      field("trace", &S::trace_path,
            "CSV job trace to stream (replaces num_jobs)", Opts().when_set()),
      field("trace_jobs", &S::trace_jobs,
            "synthetic streaming trace length; 0 off",
            Opts().when_set().non_negative()),
      field("cron_period", &S::cron_period_s,
            "recurring-job submission period (s); 0 off",
            Opts().when(cron).non_negative()),
      field("cron_phase", &S::cron_phase_s, "first cron submission time (s)",
            Opts().when(cron)),
      field("cron_end", &S::cron_end_s,
            "last eligible cron submission (s, inclusive)", Opts().when(cron)),
      field("cron_class", &S::cron_class,
            "cron job class: small|medium|large|xlarge", Opts().when(cron)),
      field("cron_priority", &S::cron_priority, "cron job priority",
            Opts().when(cron)),
      field("queue_timeout", &S::queue_timeout_s,
            "abandon jobs queued this long (s); <0 off",
            Opts().when([](const S& s) { return s.queue_timeout_s >= 0.0; })),
      field("task_timeout", &S::task_timeout_s,
            "kill jobs running this long (s); <0 off",
            Opts().when([](const S& s) { return s.task_timeout_s >= 0.0; })),
      field("policies", &S::policies,
            "comma list of policies to compare (or all)"),
      field("sweep_axis", &S::axis, "swept parameter: none"),
      field("sweep_values", &S::axis_values,
            "comma list of swept parameter values", Opts().when_set()),
      field("repeats", &S::repeats, "random mixes averaged per point",
            Opts().positive()),
      field("seed", &S::seed, "base RNG seed (repeat r uses seed + r)"),
  };
  for (const Key& key : t.keys) {
    t.names.push_back(key.name);
    if (key.opts.axis == SweepAxis::kNone) continue;
    const auto i = static_cast<std::size_t>(key.opts.axis);
    if (t.by_axis.size() <= i) t.by_axis.resize(i + 1, nullptr);
    t.by_axis[i] = &key;
  }
  // The sweep_axis help lists every bound key, so it cannot drift.
  for (Key& key : t.keys) {
    if (key.name != "sweep_axis") continue;
    for (const Key* bound : t.by_axis) {
      if (bound != nullptr) key.help += " | " + bound->name;
    }
  }
  return t;
}

const KeyTable& key_table() {
  static const KeyTable table = build_key_table();
  return table;
}

/// The key bound to `axis`, or null for kNone.
const Key* axis_key(SweepAxis axis) {
  const auto& by_axis = key_table().by_axis;
  const auto i = static_cast<std::size_t>(axis);
  return i < by_axis.size() ? by_axis[i] : nullptr;
}

}  // namespace

std::string to_string(SweepAxis a) {
  if (a == SweepAxis::kNone) return "none";
  const Key* key = axis_key(a);
  return key != nullptr ? key->name : "?";
}

SweepAxis sweep_axis_from_string(const std::string& name) {
  if (name == "none") return SweepAxis::kNone;
  std::string known = "none";
  for (const Key* key : key_table().by_axis) {
    if (key == nullptr) continue;
    if (key->name == name) return key->opts.axis;
    known += " " + key->name;
  }
  throw ConfigError("unknown sweep axis '" + name + "'; known: " + known);
}

bool axis_affects_workloads(SweepAxis a) {
  const Key* key = axis_key(a);
  return key != nullptr && key->opts.recalibrates;
}

void set_axis_value(ScenarioSpec& spec, double value) {
  if (const Key* key = axis_key(spec.axis)) key->set_value(spec, value);
}

void ScenarioSpec::validate() const {
  auto fail = [this](const std::string& what) {
    throw ConfigError("scenario '" + name + "': " + what);
  };
  for (const Key& key : key_table().keys) {
    if (!key.check) continue;
    const std::string problem = key.check(*this);
    if (!problem.empty()) fail(key.name + " " + problem);
  }
  if (policies.empty()) fail("policies must not be empty");
  if (axis != SweepAxis::kNone && axis_values.empty()) {
    fail("sweep axis '" + to_string(axis) + "' needs sweep_values");
  }
  if (axis == SweepAxis::kNone && !axis_values.empty()) {
    fail("sweep_values given but sweep_axis is 'none'");
  }
  // Values of a re-calibrating axis feed calibration runs before the cells
  // fan out, so they must pass the swept key's own check up front. Other
  // axes' values are checked where each cell consumes them (a negative
  // submission gap fails in the mix generator, on the worker).
  if (const Key* key = axis_key(axis)) {
    for (const double v : axis_values) {
      if (key->opts.sweep_positive && v <= 0.0) {
        fail("axis '" + key->name + "' sweep values must be positive");
      }
      if (!key->opts.recalibrates) continue;
      ScenarioSpec point = *this;
      try {
        key->set_value(point, v);
      } catch (const ConfigError& e) {
        fail(e.what());
      }
      const std::string problem = key->check ? key->check(point) : "";
      if (!problem.empty()) fail(key->name + " sweep values " + problem);
    }
  }

  // Cross-field rules.
  if (net_model != "flat" && app != "graph") {
    fail("net_model '" + net_model + "' requires app=graph (only the graph "
         "calibration routes through the topology seam)");
  }
  if (net_oversub != 1.0 && net_model == "flat") {
    fail("net_oversub needs a topology: set net_model=fattree or dragonfly");
  }
  const ScenarioSpec defaults;
  if (app != "graph" && (graph_vertices != defaults.graph_vertices ||
                         graph_skew != defaults.graph_skew)) {
    fail("graph_vertices/graph_skew require app=graph");
  }
  if (axis == SweepAxis::kRefineRate && app != "amr") {
    fail("axis '" + to_string(axis) + "' requires app=amr");
  }
  if (axis == SweepAxis::kLbStrategy && app != "amr" && app != "graph") {
    fail("axis '" + to_string(axis) + "' requires app=amr or app=graph");
  }
  if ((axis == SweepAxis::kGraphSkew || axis == SweepAxis::kNetOversub) &&
      app != "graph") {
    fail("axis '" + to_string(axis) + "' requires app=graph");
  }
  if (axis == SweepAxis::kNetOversub && net_model == "flat") {
    fail("axis 'net_oversub' needs a topology: set net_model=fattree or "
         "dragonfly");
  }
  if (cron_period_s > 0.0) {
    if (cron_phase_s < 0.0) fail("cron_phase must be non-negative");
    if (cron_end_s < cron_phase_s) {
      fail("cron_end must be >= cron_phase (the cron window is "
           "[cron_phase, cron_end])");
    }
    try {
      elastic::job_class_from_string(cron_class);
    } catch (const std::exception& e) {
      fail(e.what());
    }
    if (cron_priority < 1) fail("cron_priority must be >= 1");
  }
  try {
    faults.validate();
  } catch (const std::exception& e) {
    fail(std::string("bad fault plan: ") + e.what());
  }
  if (!faults.domain_sizes.empty()) {
    int covered = 0;
    for (const int s : faults.domain_sizes) covered += s;
    if (covered > total_slots()) {
      fail("fault_domains cover " + std::to_string(covered) +
           " slots but the cluster has only " +
           std::to_string(total_slots()));
    }
  }
}

const std::vector<std::string>& spec_config_keys() {
  return key_table().names;
}

std::string spec_config_help() {
  constexpr std::size_t kColumn = 26;  // where descriptions start
  constexpr std::size_t kWidth = 80;
  const ScenarioSpec defaults;
  std::string out;
  for (const Key& key : key_table().keys) {
    std::string line = "  " + key.name + "=" + key.render(defaults);
    line.resize(std::max(line.size() + 2, kColumn), ' ');
    std::istringstream words(key.help);
    std::string word;
    bool first = true;
    while (words >> word) {
      if (!first && line.size() + 1 + word.size() > kWidth) {
        out += line + "\n";
        line = std::string(kColumn, ' ') + word;
      } else {
        line += (first ? "" : " ") + word;
      }
      first = false;
    }
    out += line + "\n";
  }
  return out;
}

ScenarioSpec spec_from_config(const Config& cfg, ScenarioSpec base) {
  ScenarioSpec spec = std::move(base);
  for (const Key& key : key_table().keys) {
    if (const auto value = cfg.get(key.name)) key.parse(spec, *value);
  }
  spec.validate();
  return spec;
}

std::string describe(const ScenarioSpec& spec) {
  std::string out;
  for (const Key& key : key_table().keys) {
    if (!key.shown(spec)) continue;
    if (!out.empty()) out += ' ';
    out += key.name + "=" + key.render(spec);
  }
  return out;
}

}  // namespace ehpc::scenario
