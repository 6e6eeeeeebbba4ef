#include "elastic/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace ehpc::elastic {
namespace {

JobRecord rec(JobId id, int prio, double submit, double start, double complete) {
  JobRecord r;
  r.id = id;
  r.priority = prio;
  r.submit_time = submit;
  r.start_time = start;
  r.complete_time = complete;
  return r;
}

TEST(JobRecord, DerivedTimes) {
  const JobRecord r = rec(0, 1, 10.0, 25.0, 100.0);
  EXPECT_DOUBLE_EQ(r.response_time(), 15.0);
  EXPECT_DOUBLE_EQ(r.completion_time(), 90.0);
}

/// Note one record's submission and completion, then fold it: for tests
/// whose records need no usage steps interleaved with their events.
void add_noted(MetricsCollector& mc, const JobRecord& r) {
  mc.note_submit(r.submit_time);
  mc.note_complete(r.complete_time);
  mc.add_job(r);
}

TEST(MetricsCollector, TotalTimeSpansSubmitToLastComplete) {
  MetricsCollector mc(64);
  mc.note_submit(0.0);
  mc.note_submit(10.0);
  mc.note_complete(50.0);
  mc.add_job(rec(0, 1, 0.0, 0.0, 50.0));
  mc.note_complete(200.0);
  mc.add_job(rec(1, 1, 10.0, 20.0, 200.0));
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.total_time_s, 200.0);
}

TEST(MetricsCollector, WeightedMeansUsePriority) {
  MetricsCollector mc(64);
  // Response times 10 (prio 1) and 40 (prio 3): weighted mean 32.5.
  mc.note_submit(0.0);
  mc.note_submit(0.0);
  mc.note_complete(100.0);
  mc.note_complete(100.0);
  mc.add_job(rec(0, 1, 0.0, 10.0, 100.0));
  mc.add_job(rec(1, 3, 0.0, 40.0, 100.0));
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.weighted_response_s, (10.0 * 1 + 40.0 * 3) / 4.0);
  EXPECT_DOUBLE_EQ(m.weighted_completion_s, 100.0);
}

TEST(MetricsCollector, UtilizationFromStepTrace) {
  MetricsCollector mc(64);
  mc.note_submit(0.0);
  mc.record_usage(0.0, 64);   // full for the first half
  mc.record_usage(50.0, 0);   // idle for the second half
  mc.note_complete(100.0);
  mc.add_job(rec(0, 1, 0.0, 0.0, 100.0));
  const RunMetrics m = mc.compute();
  EXPECT_NEAR(m.utilization, 0.5, 1e-12);
}

TEST(MetricsCollector, UtilizationClampedToWindow) {
  MetricsCollector mc(64);
  mc.record_usage(0.0, 0);     // before the window: sets the initial level
  mc.note_submit(100.0);
  mc.record_usage(100.0, 32);  // half-busy throughout the window
  mc.note_complete(200.0);
  mc.add_job(rec(0, 1, 100.0, 100.0, 200.0));
  const RunMetrics m = mc.compute();
  EXPECT_NEAR(m.utilization, 0.5, 1e-12);
}

TEST(MetricsCollector, RejectsInvalidInput) {
  MetricsCollector mc(64);
  EXPECT_THROW(mc.add_job(rec(0, 1, 10.0, 5.0, 20.0)), PreconditionError);
  EXPECT_THROW(mc.record_usage(0.0, 65), PreconditionError);
  EXPECT_THROW(mc.record_usage(0.0, -1), PreconditionError);
  EXPECT_THROW(mc.compute(), PreconditionError);  // no jobs
}

TEST(MetricsCollector, LbStepsAveragedIntoRunMetrics) {
  MetricsCollector mc(64);
  add_noted(mc, rec(0, 1, 0.0, 0.0, 50.0));
  mc.record_lb_step(2.0, 10.0);
  mc.record_lb_step(1.5, 20.0);
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.lb_post_ratio, 1.75);
  EXPECT_DOUBLE_EQ(m.lb_migrations_per_step, 15.0);
  EXPECT_DOUBLE_EQ(m.lb_steps, 2.0);
}

TEST(MetricsCollector, NoLbStepsYieldBalancedDefaults) {
  MetricsCollector mc(64);
  add_noted(mc, rec(0, 1, 0.0, 0.0, 50.0));
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.lb_post_ratio, 1.0);
  EXPECT_DOUBLE_EQ(m.lb_migrations_per_step, 0.0);
  EXPECT_DOUBLE_EQ(m.lb_steps, 0.0);
}

TEST(MetricsCollector, RejectsInvalidLbStep) {
  MetricsCollector mc(64);
  EXPECT_THROW(mc.record_lb_step(0.5, 1.0), PreconditionError);
  EXPECT_THROW(mc.record_lb_step(1.5, -1.0), PreconditionError);
}

TEST(AverageMetrics, ComponentwiseMean) {
  RunMetrics a{100.0, 0.8, 10.0, 50.0, 1.2, 4.0, 2.0};
  RunMetrics b{200.0, 0.6, 30.0, 70.0, 1.8, 8.0, 4.0};
  const RunMetrics avg = average_metrics({a, b});
  EXPECT_DOUBLE_EQ(avg.total_time_s, 150.0);
  EXPECT_DOUBLE_EQ(avg.utilization, 0.7);
  EXPECT_DOUBLE_EQ(avg.weighted_response_s, 20.0);
  EXPECT_DOUBLE_EQ(avg.weighted_completion_s, 60.0);
  EXPECT_DOUBLE_EQ(avg.lb_post_ratio, 1.5);
  EXPECT_DOUBLE_EQ(avg.lb_migrations_per_step, 6.0);
  EXPECT_DOUBLE_EQ(avg.lb_steps, 3.0);
}

TEST(AverageMetrics, EmptyThrows) {
  EXPECT_THROW(average_metrics({}), PreconditionError);
}

TEST(AverageMetrics, IncludesAbandonedAndTimedOutCounts) {
  RunMetrics a;
  a.jobs_abandoned = 2.0;
  a.jobs_timed_out = 4.0;
  RunMetrics b;
  b.jobs_abandoned = 4.0;
  b.jobs_timed_out = 0.0;
  const RunMetrics avg = average_metrics({a, b});
  EXPECT_DOUBLE_EQ(avg.jobs_abandoned, 3.0);
  EXPECT_DOUBLE_EQ(avg.jobs_timed_out, 2.0);
}

// Latent bug (pre-fix): an abandoned job has start_time == complete_time,
// so goodput() took the `span <= 0` branch and returned 1.0 — a job that
// produced nothing was credited with perfect goodput.
TEST(JobRecord, AbandonedJobHasZeroGoodput) {
  JobRecord r = rec(0, 1, 10.0, 50.0, 50.0);
  r.abandoned = true;
  EXPECT_EQ(r.goodput(), 0.0);
}

// Latent bug (pre-fix): a task-timeout kill looked like a normal (early)
// completion, so the killed job's goodput was ~1 even though its output was
// discarded and its runtime charged.
TEST(JobRecord, TimedOutJobHasZeroGoodput) {
  JobRecord r = rec(0, 1, 0.0, 5.0, 905.0);
  r.timed_out = true;
  EXPECT_EQ(r.goodput(), 0.0);
}

TEST(JobRecord, InstantCompletionWithoutFlagsKeepsFullGoodput) {
  // The span <= 0 branch still means "no failures, no lost work" for a
  // genuinely instant job.
  EXPECT_EQ(rec(0, 1, 10.0, 50.0, 50.0).goodput(), 1.0);
}

TEST(MetricsCollector, CountsAbandonedAndTimedOutJobs) {
  MetricsCollector mc(64);
  for (int i = 0; i < 3; ++i) mc.note_submit(0.0);
  JobRecord ab = rec(1, 2, 0.0, 60.0, 60.0);
  ab.abandoned = true;
  mc.note_complete(60.0);
  mc.add_job(ab);
  JobRecord to = rec(2, 3, 0.0, 10.0, 90.0);
  to.timed_out = true;
  mc.note_complete(90.0);
  mc.add_job(to);
  mc.note_complete(100.0);
  mc.add_job(rec(0, 1, 0.0, 0.0, 100.0));
  const RunMetrics m = mc.compute();
  EXPECT_DOUBLE_EQ(m.jobs_abandoned, 1.0);
  EXPECT_DOUBLE_EQ(m.jobs_timed_out, 1.0);
  EXPECT_DOUBLE_EQ(m.jobs_failed, 0.0);
  // Mean goodput over {1, 0, 0}.
  EXPECT_NEAR(m.goodput, 1.0 / 3.0, 1e-12);
}

// The batch formula the collector's fold replaced, kept here as an oracle:
// retain every record and usage step, then compute each metric in one pass
// over `jobs` (in the order given) and the usage trace windowed to
// [first submit, last completion].
RunMetrics batch_oracle(const std::vector<JobRecord>& jobs,
                        const std::vector<std::pair<double, double>>& usage,
                        int total_slots) {
  RunMetrics m;
  double first_submit = jobs.front().submit_time;
  double last_complete = jobs.front().complete_time;
  WeightedMean response;
  WeightedMean completion;
  std::vector<double> recovery;
  std::vector<double> lost;
  std::vector<double> goodput;
  for (const JobRecord& j : jobs) {
    first_submit = std::min(first_submit, j.submit_time);
    last_complete = std::max(last_complete, j.complete_time);
    response.add(j.response_time(), static_cast<double>(j.priority));
    completion.add(j.completion_time(), static_cast<double>(j.priority));
    if (j.failed) m.jobs_failed += 1.0;
    if (j.abandoned) m.jobs_abandoned += 1.0;
    if (j.timed_out) m.jobs_timed_out += 1.0;
    recovery.push_back(j.recovery_s);
    lost.push_back(j.lost_work_s);
    goodput.push_back(j.goodput());
  }
  m.total_time_s = last_complete - first_submit;
  m.weighted_response_s = response.value();
  m.weighted_completion_s = completion.value();
  std::vector<std::pair<double, double>> window;
  double current = 0.0;
  for (const auto& [t, used] : usage) {
    if (t <= first_submit) {
      current = used;
    } else if (t <= last_complete) {
      if (window.empty()) window.emplace_back(first_submit, current);
      window.emplace_back(t, used);
    }
  }
  if (window.empty()) window.emplace_back(first_submit, current);
  m.utilization = time_weighted_average(window, last_complete) / total_slots;
  m.recovery_time_s = mean_of(recovery);
  m.lost_work_s = mean_of(lost);
  m.goodput = mean_of(goodput);
  return m;
}

void expect_matches_oracle(const RunMetrics& got, const RunMetrics& want,
                           const char* order) {
  // Sum-ordered metrics are exact; the utilization integral is summed in a
  // different grouping, so it agrees to rounding.
  EXPECT_EQ(got.total_time_s, want.total_time_s) << order;
  EXPECT_EQ(got.weighted_response_s, want.weighted_response_s) << order;
  EXPECT_EQ(got.weighted_completion_s, want.weighted_completion_s) << order;
  EXPECT_EQ(got.jobs_failed, want.jobs_failed) << order;
  EXPECT_EQ(got.jobs_abandoned, want.jobs_abandoned) << order;
  EXPECT_EQ(got.jobs_timed_out, want.jobs_timed_out) << order;
  EXPECT_EQ(got.recovery_time_s, want.recovery_time_s) << order;
  EXPECT_EQ(got.lost_work_s, want.lost_work_s) << order;
  EXPECT_EQ(got.goodput, want.goodput) << order;
  EXPECT_NEAR(got.utilization, want.utilization, 1e-12) << order;
}

// The online fold agrees with the batch formula whether records are folded
// as they complete (streaming replay) or in id order after the run (batch
// replay), on one event sequence that opens the window after an idle
// stretch and records usage after the last completion.
TEST(MetricsCollector, MatchesBatchFormulaInEitherFoldOrder) {
  const std::vector<std::pair<double, double>> usage{
      {0.0, 16.0},   {40.0, 48.0},  {110.0, 64.0},
      {180.0, 32.0}, {260.0, 8.0},  {300.0, 0.0}};
  // In completion order.
  std::vector<JobRecord> by_completion;
  JobRecord ab = rec(2, 1, 50.0, 95.0, 95.0);
  ab.abandoned = true;
  by_completion.push_back(ab);
  by_completion.push_back(rec(0, 2, 5.0, 10.0, 120.0));
  JobRecord fl = rec(3, 3, 60.0, 70.0, 210.0);
  fl.failed = true;
  fl.lost_work_s = 30.0;
  fl.recovery_s = 12.0;
  by_completion.push_back(fl);
  by_completion.push_back(rec(1, 5, 30.0, 31.0, 260.0));
  std::vector<JobRecord> by_id = by_completion;
  std::sort(by_id.begin(), by_id.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });

  // Replays the run's events in virtual-time order (submissions before
  // completions before usage at a shared instant). `fold_on_completion`
  // folds each record right after its completion; otherwise every record is
  // folded after the run in id order.
  auto replay = [&](bool fold_on_completion) {
    struct Event {
      double t;
      int kind;  // 0 submit, 1 complete, 2 usage
      std::size_t index;
    };
    std::vector<Event> events;
    for (std::size_t i = 0; i < by_completion.size(); ++i) {
      events.push_back({by_completion[i].submit_time, 0, i});
      events.push_back({by_completion[i].complete_time, 1, i});
    }
    for (std::size_t i = 0; i < usage.size(); ++i) {
      events.push_back({usage[i].first, 2, i});
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.t < b.t || (a.t == b.t && a.kind < b.kind);
                     });
    MetricsCollector mc(64);
    for (const Event& e : events) {
      if (e.kind == 0) {
        mc.note_submit(e.t);
      } else if (e.kind == 1) {
        mc.note_complete(e.t);
        if (fold_on_completion) mc.add_job(by_completion[e.index]);
      } else {
        mc.record_usage(e.t, static_cast<int>(usage[e.index].second));
      }
    }
    if (!fold_on_completion) {
      for (const JobRecord& r : by_id) mc.add_job(r);
    }
    return mc.compute();
  };

  expect_matches_oracle(replay(true), batch_oracle(by_completion, usage, 64),
                        "completion order");
  expect_matches_oracle(replay(false), batch_oracle(by_id, usage, 64),
                        "id order");
}

TEST(MetricsCollector, UsageAfterLastCompletionDoesNotLeak) {
  MetricsCollector mc(64);
  mc.note_submit(0.0);
  mc.record_usage(0.0, 64);
  mc.note_complete(100.0);
  // Pod teardown events after the last completion must not extend the
  // utilization window, whether they arrive before or after the fold.
  mc.record_usage(120.0, 32);
  mc.add_job(rec(0, 1, 0.0, 0.0, 100.0));
  mc.record_usage(150.0, 0);
  const RunMetrics m = mc.compute();
  EXPECT_NEAR(m.utilization, 1.0, 1e-12);
}

TEST(MetricsCollector, AddJobRequiresNotedSubmitAndCompletion) {
  // No submission noted yet.
  MetricsCollector fresh(64);
  EXPECT_THROW(fresh.add_job(rec(0, 1, 0.0, 0.0, 50.0)), PreconditionError);
  EXPECT_THROW(fresh.note_complete(50.0), PreconditionError);

  MetricsCollector mc(64);
  mc.note_submit(10.0);
  // Submitted, but its completion was never noted.
  EXPECT_THROW(mc.add_job(rec(0, 1, 10.0, 10.0, 50.0)), PreconditionError);
  mc.note_complete(50.0);
  // Submitted before the first noted submission.
  EXPECT_THROW(mc.add_job(rec(0, 1, 5.0, 10.0, 50.0)), PreconditionError);
  // Completing after the last noted completion.
  EXPECT_THROW(mc.add_job(rec(0, 1, 10.0, 10.0, 60.0)), PreconditionError);
  mc.add_job(rec(0, 1, 10.0, 10.0, 50.0));
  // One noted completion covers one record, not two.
  EXPECT_THROW(mc.add_job(rec(1, 1, 10.0, 10.0, 50.0)), PreconditionError);
  // Events go forward in virtual time.
  EXPECT_THROW(mc.note_complete(40.0), PreconditionError);
  EXPECT_THROW(mc.note_submit(5.0), PreconditionError);
  EXPECT_DOUBLE_EQ(mc.compute().total_time_s, 40.0);
}

}  // namespace
}  // namespace ehpc::elastic
