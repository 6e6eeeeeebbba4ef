#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "elastic/workload.hpp"
#include "trace/sources.hpp"

namespace ehpc::trace {
namespace {

std::string write_temp(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::trunc);
  out << body;
  return path;
}

std::vector<schedsim::SubmittedJob> drain(TraceSource& source) {
  std::vector<schedsim::SubmittedJob> out;
  while (auto job = source.next()) out.push_back(*job);
  return out;
}

// ---- CSV ----

TEST(CsvTraceSource, ParsesAllColumns) {
  const std::string path = write_temp(
      "csv_full.csv",
      "# id,class,priority,submit,queue_timeout,task_timeout,max_failed\n"
      "0,small,2,0\n"
      "\n"
      "1,xlarge,5,10.5,3600\n"
      "2,medium,1,20,1800,900,2\n");
  CsvTraceSource source(path);
  const auto jobs = drain(source);
  ASSERT_EQ(jobs.size(), 3u);

  EXPECT_EQ(jobs[0].spec.id, 0);
  EXPECT_EQ(jobs[0].job_class, elastic::JobClass::kSmall);
  EXPECT_EQ(jobs[0].spec.priority, 2);
  EXPECT_EQ(jobs[0].submit_time, 0.0);
  // Columns absent and no defaults: limits stay unset.
  EXPECT_LT(jobs[0].queue_timeout_s, 0.0);
  EXPECT_LT(jobs[0].task_timeout_s, 0.0);
  EXPECT_LT(jobs[0].max_failed_nodes, 0);

  EXPECT_EQ(jobs[1].job_class, elastic::JobClass::kXLarge);
  EXPECT_EQ(jobs[1].submit_time, 10.5);
  EXPECT_EQ(jobs[1].queue_timeout_s, 3600.0);
  EXPECT_LT(jobs[1].task_timeout_s, 0.0);

  EXPECT_EQ(jobs[2].queue_timeout_s, 1800.0);
  EXPECT_EQ(jobs[2].task_timeout_s, 900.0);
  EXPECT_EQ(jobs[2].max_failed_nodes, 2);
}

TEST(CsvTraceSource, DefaultsFillMissingLimitColumns) {
  const std::string path = write_temp("csv_defaults.csv",
                                      "0,small,1,0\n"
                                      "1,large,3,5,100\n");
  JobDefaults defaults;
  defaults.queue_timeout_s = 60.0;
  defaults.task_timeout_s = 30.0;
  defaults.max_failed_nodes = 1;
  CsvTraceSource source(path, defaults);
  const auto jobs = drain(source);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].queue_timeout_s, 60.0);
  EXPECT_EQ(jobs[0].task_timeout_s, 30.0);
  EXPECT_EQ(jobs[0].max_failed_nodes, 1);
  // A present column overrides the default; absent ones keep it.
  EXPECT_EQ(jobs[1].queue_timeout_s, 100.0);
  EXPECT_EQ(jobs[1].task_timeout_s, 30.0);
}

TEST(CsvTraceSource, SpecMatchesClassTemplate) {
  const std::string path = write_temp("csv_spec.csv", "7,large,4,12\n");
  CsvTraceSource source(path);
  const auto jobs = drain(source);
  ASSERT_EQ(jobs.size(), 1u);
  const elastic::JobSpec want =
      elastic::spec_for_class(elastic::JobClass::kLarge, 7, 4);
  EXPECT_EQ(jobs[0].spec.min_replicas, want.min_replicas);
  EXPECT_EQ(jobs[0].spec.max_replicas, want.max_replicas);
  EXPECT_EQ(jobs[0].spec.priority, 4);
}

// Every parse failure must be a hard error naming the 1-based line number —
// the ad-hoc atoi/atof loader this source replaced yielded silent zeros.
TEST(CsvTraceSource, MalformedFieldsErrorWithLineNumbers) {
  struct Case {
    const char* name;
    const char* body;
    const char* line_tag;
    const char* message;
  };
  const std::vector<Case> cases{
      {"bad_id.csv", "x,small,1,0\n", ":1:", "bad job id"},
      {"bad_class.csv", "0,tiny,1,0\n", ":1:", "unknown job class"},
      {"bad_priority.csv", "0,small,one,0\n", ":1:", "bad priority"},
      {"bad_submit.csv", "0,small,1,12abc\n", ":1:", "bad submit time"},
      {"missing_column.csv", "0,small,1\n", ":1:", "expected 4-7 fields"},
      {"bad_timeout.csv", "# header\n0,small,1,0,nan?\n", ":2:",
       "bad queue timeout"},
      // Values that parse but the replay cannot use: an id past INT_MAX
      // used to narrow to job 0, a negative id read as a free fault slot,
      // and the rest failed later inside the simulation with no line.
      {"wide_id.csv", "0,small,1,0\n4294967296,small,1,10\n", ":2:",
       "bad job id"},
      {"negative_id.csv", "-1,small,1,0\n", ":1:", "bad job id"},
      {"negative_priority.csv", "0,small,-1,0\n", ":1:", "bad priority"},
      {"wide_priority.csv", "0,small,2147483648,0\n", ":1:", "bad priority"},
      {"wide_max_failed.csv", "0,small,1,0,-1,-1,4294967296\n", ":1:",
       "bad max failed nodes"},
      {"nan_submit.csv", "0,small,1,nan\n", ":1:", "bad submit time"},
      {"inf_submit.csv", "0,small,1,inf\n", ":1:", "bad submit time"},
      {"negative_submit.csv", "0,small,1,-5\n", ":1:", "bad submit time"},
      {"nan_queue_timeout.csv", "0,small,1,0,nan\n", ":1:",
       "bad queue timeout"},
      {"nan_task_timeout.csv", "0,small,1,0,-1,nan\n", ":1:",
       "bad task timeout"},
  };
  for (const Case& c : cases) {
    const std::string path = write_temp(c.name, c.body);
    CsvTraceSource source(path);
    try {
      drain(source);
      FAIL() << c.name << ": expected PreconditionError";
    } catch (const PreconditionError& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find(c.line_tag), std::string::npos)
          << c.name << ": " << what;
      EXPECT_NE(what.find(c.message), std::string::npos)
          << c.name << ": " << what;
    }
  }
}

// The edges of the accepted ranges still parse.
TEST(CsvTraceSource, AcceptsRangeEdges) {
  const std::string path = write_temp(
      "csv_edges.csv",
      "2147483647,small,0,0,inf,-inf,-2147483648\n"
      "0,small,2147483647,1e300,-1,-1,2147483647\n");
  CsvTraceSource source(path);
  const auto jobs = drain(source);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].spec.id, 2147483647);
  EXPECT_EQ(jobs[0].spec.priority, 0);
  EXPECT_EQ(jobs[0].max_failed_nodes, -2147483647 - 1);
  EXPECT_EQ(jobs[1].spec.priority, 2147483647);
  EXPECT_EQ(jobs[1].submit_time, 1e300);
  EXPECT_EQ(jobs[1].max_failed_nodes, 2147483647);
}

TEST(CsvTraceSource, RejectsBackwardsSubmitTimes) {
  const std::string path = write_temp("csv_backwards.csv",
                                      "0,small,1,100\n"
                                      "1,small,1,50\n");
  CsvTraceSource source(path);
  EXPECT_NO_THROW(source.next());
  try {
    source.next();
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& err) {
    EXPECT_NE(std::string(err.what()).find(":2:"), std::string::npos)
        << err.what();
  }
}

TEST(CsvTraceSource, MissingFileAndEmptyTraceAreErrors) {
  EXPECT_THROW(CsvTraceSource("/nonexistent/trace.csv"), PreconditionError);
  const std::string path = write_temp("csv_empty.csv", "# only comments\n\n");
  CsvTraceSource source(path);
  EXPECT_THROW(source.next(), PreconditionError);
}

// ---- synthetic ----

TEST(SyntheticTraceSource, DeterministicAndCounterBased) {
  SyntheticTraceConfig config;
  config.num_jobs = 200;
  config.submission_gap_s = 7.5;
  config.seed = 42;
  SyntheticTraceSource a(config);
  SyntheticTraceSource b(config);
  const auto ja = drain(a);
  const auto jb = drain(b);
  ASSERT_EQ(ja.size(), 200u);
  ASSERT_EQ(jb.size(), 200u);
  for (std::size_t i = 0; i < ja.size(); ++i) {
    EXPECT_EQ(ja[i].spec.id, static_cast<elastic::JobId>(i));
    EXPECT_EQ(ja[i].submit_time, 7.5 * static_cast<double>(i));
    EXPECT_EQ(ja[i].job_class, jb[i].job_class);
    EXPECT_EQ(ja[i].spec.priority, jb[i].spec.priority);
    EXPECT_GE(ja[i].spec.priority, 1);
    EXPECT_LE(ja[i].spec.priority, 5);
    // Identity is a pure function of (seed, index): pinned to trace_hash.
    const auto cls = static_cast<elastic::JobClass>(
        trace_hash(42, static_cast<std::uint64_t>(i), 0) % 4);
    EXPECT_EQ(ja[i].job_class, cls);
  }
}

TEST(SyntheticTraceSource, SeedChangesDraws) {
  SyntheticTraceConfig a_cfg;
  a_cfg.num_jobs = 64;
  SyntheticTraceConfig b_cfg = a_cfg;
  b_cfg.seed = a_cfg.seed + 1;
  SyntheticTraceSource a(a_cfg);
  SyntheticTraceSource b(b_cfg);
  const auto ja = drain(a);
  const auto jb = drain(b);
  int differing = 0;
  for (std::size_t i = 0; i < ja.size(); ++i) {
    if (ja[i].job_class != jb[i].job_class ||
        ja[i].spec.priority != jb[i].spec.priority) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(SyntheticTraceSource, StampsDefaults) {
  SyntheticTraceConfig config;
  config.num_jobs = 3;
  config.defaults.queue_timeout_s = 11.0;
  config.defaults.task_timeout_s = 22.0;
  config.defaults.max_failed_nodes = 3;
  SyntheticTraceSource source(config);
  for (const auto& job : drain(source)) {
    EXPECT_EQ(job.queue_timeout_s, 11.0);
    EXPECT_EQ(job.task_timeout_s, 22.0);
    EXPECT_EQ(job.max_failed_nodes, 3);
  }
}

TEST(TraceHash, LaneAndSeedSensitive) {
  EXPECT_EQ(trace_hash(1, 2, 3), trace_hash(1, 2, 3));
  EXPECT_NE(trace_hash(1, 2, 0), trace_hash(1, 2, 1));
  EXPECT_NE(trace_hash(1, 2, 0), trace_hash(2, 2, 0));
  EXPECT_NE(trace_hash(1, 2, 0), trace_hash(1, 3, 0));
}

// ---- cron ----

TEST(CronTraceSource, OccurrencesCoverPhaseThroughEndInclusive) {
  CronTraceConfig config;
  config.period_s = 600.0;
  config.phase_s = 100.0;
  config.end_s = 1900.0;  // 100, 700, 1300, 1900 — end is inclusive
  config.job_class = elastic::JobClass::kLarge;
  config.priority = 4;
  CronTraceSource source(config);
  const auto jobs = drain(source);
  ASSERT_EQ(jobs.size(), 4u);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(jobs[k].submit_time, 100.0 + 600.0 * static_cast<double>(k));
    EXPECT_EQ(jobs[k].spec.id,
              config.id_base + static_cast<elastic::JobId>(k));
    EXPECT_EQ(jobs[k].job_class, elastic::JobClass::kLarge);
    EXPECT_EQ(jobs[k].spec.priority, 4);
  }
}

TEST(CronTraceSource, SingleOccurrenceWhenEndEqualsPhase) {
  CronTraceConfig config;
  config.period_s = 60.0;
  config.phase_s = 30.0;
  config.end_s = 30.0;
  CronTraceSource source(config);
  EXPECT_EQ(drain(source).size(), 1u);
}

// ---- composite ----

TEST(CompositeTraceSource, MergesInSubmitOrderWithIdTieBreak) {
  CronTraceConfig cron_cfg;
  cron_cfg.period_s = 40.0;
  cron_cfg.phase_s = 0.0;
  cron_cfg.end_s = 80.0;  // cron at 0, 40, 80 with ids >= id_base
  SyntheticTraceConfig synth_cfg;
  synth_cfg.num_jobs = 5;
  synth_cfg.submission_gap_s = 20.0;  // synthetic at 0, 20, 40, 60, 80

  std::vector<std::unique_ptr<TraceSource>> children;
  children.push_back(std::make_unique<CronTraceSource>(cron_cfg));
  children.push_back(std::make_unique<SyntheticTraceSource>(synth_cfg));
  CompositeTraceSource merged(std::move(children));

  const auto jobs = drain(merged);
  ASSERT_EQ(jobs.size(), 8u);
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GE(jobs[i].submit_time, jobs[i - 1].submit_time);
    if (jobs[i].submit_time == jobs[i - 1].submit_time) {
      // Ties are deterministic: smaller job id first. Synthetic ids count
      // from 0, cron ids from id_base, so synthetic wins each tie.
      EXPECT_LT(jobs[i - 1].spec.id, jobs[i].spec.id);
    }
  }
  std::vector<double> times;
  for (const auto& job : jobs) times.push_back(job.submit_time);
  EXPECT_EQ(times, (std::vector<double>{0, 0, 20, 40, 40, 60, 80, 80}));
}

TEST(CompositeTraceSource, EmptyOrNullChildrenAreErrors) {
  EXPECT_THROW(CompositeTraceSource({}), PreconditionError);
  std::vector<std::unique_ptr<TraceSource>> children;
  children.push_back(nullptr);
  EXPECT_THROW(CompositeTraceSource(std::move(children)), PreconditionError);
}

}  // namespace
}  // namespace ehpc::trace
