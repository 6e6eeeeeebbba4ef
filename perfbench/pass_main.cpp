// One benchmark pass in its own process:
//
//   perfbench_pass --workload <name> --seed <n> --trace <0|1> [--spans <file>]
//
// Prints one JSON object on stdout: the pass's host-time figures, peak RSS,
// correctness digest, invariant violations and (traced) per-layer metrics.
// Exits 1 when an invariant fails or the pass throws, 2 on bad arguments.

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Peak resident set of this process image. VmHWM belongs to the address
/// space, which execve replaces; getrusage's ru_maxrss would instead carry
/// over the spawning Python process's footprint.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 20, '\n');
  }
  return 0.0;
}

int usage_error(const std::string& message) {
  std::fprintf(stderr,
               "perfbench_pass: %s\nusage: perfbench_pass --workload <name> "
               "--seed <n> --trace <0|1> [--spans <file>]\n",
               message.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans_path;
  unsigned long seed = 2025;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage_error("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        std::size_t used = 0;
        seed = std::stoul(value, &used);
        if (used != value.size() || seed > 0xffffffffUL) {
          return usage_error("bad seed '" + value + "'");
        }
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage_error("--trace takes 0 or 1");
        traced = value == "1";
      } else if (arg == "--spans") {
        spans_path = value;
      } else {
        return usage_error("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      return usage_error("bad value '" + value + "' for " + arg);
    }
  }
  if (workload.empty()) return usage_error("--workload is required");

  perfbench::PassOutput out;
  std::string error;
  try {
    out = perfbench::run_pass(workload, static_cast<unsigned>(seed), traced);
  } catch (const std::exception& e) {
    error = e.what();
  }

  std::string json = "{\"workload\": " + json_string(workload) +
                     ", \"seed\": " + std::to_string(seed) +
                     ", \"traced\": " + (traced ? "true" : "false") +
                     ", \"error\": " + json_string(error) +
                     ", \"digest\": " + json_string(out.digest) +
                     ", \"setup_end_s\": " + json_number(out.setup_end_s) +
                     ", \"wall_s\": " + json_number(out.wall_s) +
                     ", \"jobs\": " + std::to_string(out.jobs) +
                     ", \"placements\": " + std::to_string(out.placements) +
                     ", \"peak_rss_mb\": " + json_number(peak_rss_mb()) +
                     ", \"violations\": [";
  for (std::size_t i = 0; i < out.violations.size(); ++i) {
    json += (i > 0 ? ", " : "") + json_string(out.violations[i]);
  }
  json += "], \"layer\": {";
  bool first = true;
  for (const auto& [name, value] : out.layer) {
    json += (first ? "" : ", ") + json_string(name) + ": " + json_number(value);
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());

  if (!spans_path.empty() && !out.spans.empty()) {
    std::ofstream file(spans_path);
    file << perfbench::spans_json(out.spans);
    if (!file) {
      std::fprintf(stderr, "perfbench_pass: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  return error.empty() && out.violations.empty() ? 0 : 1;
}
