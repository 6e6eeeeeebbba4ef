// main() for bench_run_all: every figure/table driver is linked into this
// binary, and run_all_main runs the whole bench registry, writing CSVs +
// summary.json to out_dir. `--quick` selects the CI-sized profile used for
// the committed baselines:
//
//   bench_run_all --quick out_dir=bench/baselines/quick
//
// Scenario mode bypasses the bench registry and runs any scenario from the
// scenario registry (with per-key overrides) through the sweep engine:
//
//   bench_run_all --list-scenarios
//   bench_run_all scenario=fig7_submission_gap repeats=20 threads=8
//
// See bench_compare for diffing the output against a committed baseline.

#include "bench/lib/runner.hpp"

int main(int argc, char** argv) {
  return ehpc::bench::run_all_main(argc, argv);
}
