#include "elastic/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace ehpc::elastic {
namespace {

JobSpec spec(JobId id, int min_r, int max_r, int priority) {
  JobSpec s;
  s.id = id;
  s.name = "job-" + std::to_string(id);
  s.min_replicas = min_r;
  s.max_replicas = max_r;
  s.priority = priority;
  return s;
}

PolicyConfig elastic_cfg(double gap = 0.0) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kElastic;
  cfg.rescale_gap_s = gap;
  return cfg;
}

// Pull the single action of a given type out of an action list.
const Action* find_action(const std::vector<Action>& actions, ActionType type) {
  for (const auto& a : actions) {
    if (a.type == type) return &a;
  }
  return nullptr;
}

TEST(PolicyEngine, EmptyClusterStartsAtMax) {
  PolicyEngine eng(64, elastic_cfg());
  auto actions = eng.submit(spec(0, 8, 32, 3), 0.0);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kStart);
  EXPECT_EQ(actions[0].target_replicas, 32);
  EXPECT_EQ(eng.free_slots(), 32);
  EXPECT_TRUE(eng.job(0).running);
}

TEST(PolicyEngine, MoldableSizingFillsGap) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 48, 3), 0.0);  // uses 48, 16 free
  auto actions = eng.submit(spec(1, 8, 32, 3), 1.0);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->target_replicas, 16);  // sized to the gap, not enqueued
  EXPECT_EQ(eng.free_slots(), 0);
}

TEST(PolicyEngine, ReserveSlotsHoldsHeadroom) {
  PolicyConfig cfg = elastic_cfg();
  cfg.reserve_slots = 1;  // the paper's "freeSlots - 1"
  PolicyEngine eng(64, cfg);
  auto actions = eng.submit(spec(0, 8, 64, 3), 0.0);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->target_replicas, 63);
}

TEST(PolicyEngine, EnqueuesWhenNothingShrinkable) {
  PolicyEngine eng(64, elastic_cfg());
  // One job at its min occupying everything: nothing can shrink.
  eng.submit(spec(0, 64, 64, 3), 0.0);
  auto actions = eng.submit(spec(1, 8, 16, 5), 1.0);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kEnqueue);
  EXPECT_FALSE(eng.job(1).running);
  EXPECT_EQ(eng.queued().size(), 1u);
}

TEST(PolicyEngine, ShrinksLowerPriorityToFitHigherPriority) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 32, 1), 0.0);   // low priority, 32 replicas
  eng.submit(spec(1, 8, 32, 1), 1.0);   // low priority, 32 replicas
  EXPECT_EQ(eng.free_slots(), 0);

  auto actions = eng.submit(spec(2, 16, 32, 5), 2.0);
  const Action* shrink = find_action(actions, ActionType::kShrink);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(shrink, nullptr);
  ASSERT_NE(start, nullptr);
  // Fig. 2 protects runningJobs[0] (job 0, the earlier submission): only
  // job 1 is shrunk, down to its min, freeing 24 slots.
  EXPECT_EQ(shrink->job, 1);
  EXPECT_EQ(eng.job(1).replicas, 8);
  EXPECT_EQ(start->target_replicas, 24);
  EXPECT_TRUE(eng.job(2).running);
}

TEST(PolicyEngine, NeverShrinksHigherPriorityJobs) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 32, 5), 0.0);
  eng.submit(spec(1, 8, 32, 5), 1.0);
  // Low-priority arrival cannot evict high-priority jobs.
  auto actions = eng.submit(spec(2, 16, 32, 1), 2.0);
  EXPECT_EQ(find_action(actions, ActionType::kShrink), nullptr);
  EXPECT_EQ(actions.back().type, ActionType::kEnqueue);
}

TEST(PolicyEngine, RescaleGapBlocksShrink) {
  PolicyEngine eng(64, elastic_cfg(/*gap=*/180.0));
  eng.submit(spec(0, 8, 32, 1), 0.0);
  eng.submit(spec(1, 8, 32, 1), 10.0);
  // 20s after job 1's start: the victim is within the gap.
  auto actions = eng.submit(spec(2, 16, 32, 5), 30.0);
  EXPECT_EQ(find_action(actions, ActionType::kShrink), nullptr);
  EXPECT_EQ(actions.back().type, ActionType::kEnqueue);

  // Well past the gap, the shrink goes through.
  auto later = eng.submit(spec(3, 16, 32, 5), 500.0);
  EXPECT_NE(find_action(later, ActionType::kShrink), nullptr);
  EXPECT_NE(find_action(later, ActionType::kStart), nullptr);
}

TEST(PolicyEngine, NeverShrinksBelowMin) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 16, 32, 1), 0.0);  // min 16, runs at 32
  eng.submit(spec(1, 16, 32, 1), 1.0);  // min 16, runs at 32
  // Needs 48: even shrinking job 1 fully (to 16) frees only 16 -> enqueue.
  auto actions = eng.submit(spec(2, 48, 64, 5), 2.0);
  EXPECT_EQ(actions.back().type, ActionType::kEnqueue);
  // Needs 16: shrinking job 1 to its min exactly suffices; never below min.
  auto ok = eng.submit(spec(3, 16, 16, 5), 3.0);
  EXPECT_NE(find_action(ok, ActionType::kStart), nullptr);
  EXPECT_EQ(eng.job(1).replicas, 16);
  EXPECT_GE(eng.job(1).replicas, eng.job(1).spec.min_replicas);
}

TEST(PolicyEngine, ShrinkFreesUpToMaxOfNewJob) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 32, 1), 0.0);
  eng.submit(spec(1, 8, 32, 1), 1.0);
  auto actions = eng.submit(spec(2, 8, 16, 5), 2.0);
  const Action* shrink = find_action(actions, ActionType::kShrink);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(shrink, nullptr);
  ASSERT_NE(start, nullptr);
  // Victim (job 1) shrinks enough for the new job's max (16), not just its
  // min (8): 32 -> 16.
  EXPECT_EQ(start->target_replicas, 16);
  EXPECT_EQ(eng.job(1).replicas, 16);
}

TEST(PolicyEngine, TopPriorityRunningJobNeverConsidered) {
  // The pseudocode walks index > 0: the single highest-priority running job
  // is never shrunk, even when eligible by priority.
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 64, 1), 0.0);  // only running job -> index 0
  auto actions = eng.submit(spec(1, 16, 32, 5), 1.0);
  EXPECT_EQ(find_action(actions, ActionType::kShrink), nullptr);
  EXPECT_EQ(actions.back().type, ActionType::kEnqueue);
}

TEST(PolicyEngine, EqualPriorityVictimEligible) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 32, 3), 0.0);
  eng.submit(spec(1, 8, 32, 3), 1.0);
  auto actions = eng.submit(spec(2, 16, 32, 3), 2.0);
  // Equal priority: Fig. 2 breaks only on strictly greater priority.
  EXPECT_NE(find_action(actions, ActionType::kShrink), nullptr);
  EXPECT_TRUE(eng.job(2).running);
}

TEST(PolicyEngine, CompleteExpandsRunningJobsElastic) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 32, 32, 5), 0.0);  // rigid-shaped: 32 used
  eng.submit(spec(1, 8, 64, 3), 1.0);   // sized to the 32-slot gap: below max
  EXPECT_EQ(eng.job(1).replicas, 32);
  auto actions = eng.complete(0, 100.0);
  const Action* expand = find_action(actions, ActionType::kExpand);
  ASSERT_NE(expand, nullptr);
  EXPECT_EQ(expand->job, 1);
  EXPECT_EQ(eng.job(1).replicas, 64);  // freed slots flow to the running job
  EXPECT_EQ(eng.free_slots() + eng.used_slots(), 64);
}

TEST(PolicyEngine, CompleteStartsQueuedJobsInPriorityOrder) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 64, 64, 5), 0.0);  // fills cluster, min=max
  eng.submit(spec(1, 16, 16, 2), 1.0);  // queued
  eng.submit(spec(2, 16, 16, 4), 2.0);  // queued, higher priority
  eng.submit(spec(3, 16, 16, 3), 3.0);  // queued
  auto actions = eng.complete(0, 100.0);
  // All three fit (48 <= 64); starts must come in priority order 2, 3, 1.
  std::vector<JobId> started;
  for (const auto& a : actions) {
    if (a.type == ActionType::kStart) started.push_back(a.job);
  }
  EXPECT_EQ(started, (std::vector<JobId>{2, 3, 1}));
}

TEST(PolicyEngine, CompleteMoldableDoesNotTouchRunningJobs) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kMoldable;
  cfg.rescale_gap_s = 0.0;
  PolicyEngine eng(64, cfg);
  eng.submit(spec(0, 8, 64, 3), 0.0);    // starts at 64
  eng.submit(spec(1, 8, 32, 3), 1.0);    // queued (no shrink in moldable)
  EXPECT_FALSE(eng.job(1).running);
  // Make room: complete nothing yet; shrink impossible. Add a second
  // running job by completing job 0.
  auto actions = eng.complete(0, 2.0);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->job, 1);
  EXPECT_EQ(find_action(actions, ActionType::kExpand), nullptr);
}

TEST(PolicyEngine, RigidMinForcesMinReplicas) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kRigidMin;
  PolicyEngine eng(64, cfg);
  auto actions = eng.submit(spec(0, 8, 32, 3), 0.0);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].target_replicas, 8);
  // Completion never expands a rigid job.
  eng.submit(spec(1, 8, 32, 3), 1.0);
  auto done = eng.complete(0, 100.0);
  EXPECT_EQ(find_action(done, ActionType::kExpand), nullptr);
  EXPECT_EQ(eng.job(1).replicas, 8);
}

TEST(PolicyEngine, RigidMaxForcesMaxReplicas) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kRigidMax;
  PolicyEngine eng(64, cfg);
  auto actions = eng.submit(spec(0, 8, 32, 3), 0.0);
  EXPECT_EQ(actions[0].target_replicas, 32);
  // A job that no longer fits waits even if min would fit.
  eng.submit(spec(1, 8, 48, 3), 1.0);
  EXPECT_FALSE(eng.job(1).running);
}

TEST(PolicyEngine, QueuedJobNotStartedBelowMin) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 48, 48, 5), 0.0);  // 48 used, 16 free
  eng.submit(spec(1, 32, 64, 1), 1.0);  // needs >= 32: queued
  EXPECT_FALSE(eng.job(1).running);
  // Completing a tiny job frees 48: now job 1 can start.
  auto actions = eng.complete(0, 100.0);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->job, 1);
  EXPECT_EQ(start->target_replicas, 64);
}

TEST(PolicyEngine, SubmissionTimeBreaksPriorityTies) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 64, 64, 3), 0.0);
  eng.submit(spec(1, 32, 32, 3), 2.0);  // queued, later
  eng.submit(spec(2, 32, 32, 3), 1.0);  // queued, earlier
  auto actions = eng.complete(0, 100.0);
  std::vector<JobId> started;
  for (const auto& a : actions) {
    if (a.type == ActionType::kStart) started.push_back(a.job);
  }
  // Earlier submission (job 2) wins the tie.
  EXPECT_EQ(started, (std::vector<JobId>{2, 1}));
}

TEST(PolicyEngine, RejectsInvalidSpecs) {
  PolicyEngine eng(64, elastic_cfg());
  EXPECT_THROW(eng.submit(spec(0, 0, 4, 1), 0.0), PreconditionError);
  EXPECT_THROW(eng.submit(spec(1, 8, 4, 1), 0.0), PreconditionError);
  EXPECT_THROW(eng.submit(spec(2, 128, 256, 1), 0.0), PreconditionError);
}

TEST(PolicyEngine, RejectsDuplicateAndUnknownIds) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 4, 8, 1), 0.0);
  EXPECT_THROW(eng.submit(spec(0, 4, 8, 1), 1.0), PreconditionError);
  EXPECT_THROW(eng.complete(99, 2.0), PreconditionError);
}

TEST(PolicyEngine, ModeNames) {
  EXPECT_EQ(to_string(PolicyMode::kElastic), "elastic");
  EXPECT_EQ(policy_mode_from_string("moldable"), PolicyMode::kMoldable);
  EXPECT_EQ(policy_mode_from_string("min"), PolicyMode::kRigidMin);
  EXPECT_THROW(policy_mode_from_string("nope"), PreconditionError);
}

// Property test: under random submit/complete sequences, slot accounting
// stays consistent and allocations stay within [min, max] and capacity.
class PolicyInvariants : public ::testing::TestWithParam<unsigned> {};

TEST_P(PolicyInvariants, SlotAccountingAlwaysConsistent) {
  Rng rng(GetParam());
  for (PolicyMode mode : {PolicyMode::kRigidMin, PolicyMode::kRigidMax,
                          PolicyMode::kMoldable, PolicyMode::kElastic}) {
    PolicyConfig cfg;
    cfg.mode = mode;
    cfg.rescale_gap_s = rng.uniform(0.0, 200.0);
    PolicyEngine eng(64, cfg);
    std::vector<JobId> active;
    double now = 0.0;
    int next_id = 0;
    for (int step = 0; step < 200; ++step) {
      now += rng.uniform(1.0, 120.0);
      const bool do_submit = active.empty() || rng.chance(0.55);
      if (do_submit) {
        const int min_r = static_cast<int>(rng.uniform_int(1, 16));
        const int max_r =
            min_r + static_cast<int>(rng.uniform_int(0, 48 - min_r));
        eng.submit(spec(next_id, min_r, max_r, static_cast<int>(rng.uniform_int(1, 5))),
                   now);
        active.push_back(next_id++);
      } else {
        // Complete a random running job.
        std::vector<JobId> running = eng.running();
        if (running.empty()) continue;
        const JobId victim = running[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(running.size()) - 1))];
        eng.complete(victim, now);
        active.erase(std::find(active.begin(), active.end(), victim));
      }
      // Invariants after every operation.
      int used = 0;
      for (JobId id : eng.all_jobs()) {
        const JobState& j = eng.job(id);
        if (j.running) {
          EXPECT_GE(j.replicas, j.spec.min_replicas);
          EXPECT_LE(j.replicas, j.spec.max_replicas);
          used += j.replicas;
        } else {
          EXPECT_EQ(j.replicas, 0);
        }
      }
      EXPECT_EQ(used, eng.used_slots());
      EXPECT_EQ(eng.used_slots() + eng.free_slots(), 64);
      EXPECT_GE(eng.free_slots(), 0);
      // running()/queued() (filters over the in-flight index) equal a
      // brute-force filter-and-sort over every job.
      std::vector<JobState> run_states;
      std::vector<JobState> queue_states;
      for (JobId id : eng.all_jobs()) {
        const JobState& j = eng.job(id);
        if (j.running) run_states.push_back(j);
        if (!j.running && !j.completed) queue_states.push_back(j);
      }
      const auto ids_by_priority = [](std::vector<JobState> states) {
        std::sort(states.begin(), states.end(), PriorityOrder{});
        std::vector<JobId> ids;
        for (const JobState& j : states) ids.push_back(j.spec.id);
        return ids;
      };
      EXPECT_EQ(eng.running(), ids_by_priority(run_states));
      EXPECT_EQ(eng.queued(), ids_by_priority(queue_states));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PolicyInvariants,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace ehpc::elastic
namespace ehpc::elastic {
namespace {

TEST(PolicyExtensions, AgingPromotesStarvedJob) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kElastic;
  cfg.rescale_gap_s = 0.0;
  cfg.aging_rate_per_s = 0.01;  // +1 priority point per 100 s waiting
  PolicyEngine eng(64, cfg);
  JobSpec hog;
  hog.id = 0;
  hog.min_replicas = hog.max_replicas = 64;
  hog.priority = 5;
  eng.submit(hog, 0.0);
  // Low-priority job queued early; high-priority job queued much later.
  JobSpec starved;
  starved.id = 1;
  starved.min_replicas = starved.max_replicas = 32;
  starved.priority = 1;
  eng.submit(starved, 10.0);
  JobSpec fresh;
  fresh.id = 2;
  fresh.min_replicas = fresh.max_replicas = 32;
  fresh.priority = 3;
  eng.submit(fresh, 990.0);
  // At t=1000 the starved job has aged 990 s -> effective 1 + 9.9 = 10.9,
  // beating the fresh job's 3 + 0.1.
  auto actions = eng.complete(0, 1000.0);
  ASSERT_GE(actions.size(), 2u);
  EXPECT_EQ(actions[0].type, ActionType::kStart);
  EXPECT_EQ(actions[0].job, 1);

  // Without aging, the fresh higher-priority job would start first.
  PolicyConfig plain = cfg;
  plain.aging_rate_per_s = 0.0;
  PolicyEngine eng2(64, plain);
  eng2.submit(hog, 0.0);
  eng2.submit(starved, 10.0);
  eng2.submit(fresh, 990.0);
  auto plain_actions = eng2.complete(0, 1000.0);
  EXPECT_EQ(plain_actions[0].job, 2);
}

TEST(PolicyExtensions, ExpandDeclinedWhenAlmostDone) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kElastic;
  cfg.rescale_gap_s = 0.0;
  cfg.min_remaining_fraction_for_expand = 0.2;
  PolicyEngine eng(64, cfg);
  eng.set_progress_provider([](JobId) { return 0.05; });  // 5% remaining
  eng.submit(spec(0, 32, 32, 5), 0.0);
  eng.submit(spec(1, 8, 64, 3), 1.0);  // sized to 32, below max
  auto actions = eng.complete(0, 100.0);
  EXPECT_EQ(find_action(actions, ActionType::kExpand), nullptr);
  EXPECT_EQ(eng.job(1).replicas, 32);
}

TEST(PolicyExtensions, ExpandProceedsWhenEnoughRemains) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kElastic;
  cfg.rescale_gap_s = 0.0;
  cfg.min_remaining_fraction_for_expand = 0.2;
  PolicyEngine eng(64, cfg);
  eng.set_progress_provider([](JobId) { return 0.8; });
  eng.submit(spec(0, 32, 32, 5), 0.0);
  eng.submit(spec(1, 8, 64, 3), 1.0);
  auto actions = eng.complete(0, 100.0);
  EXPECT_NE(find_action(actions, ActionType::kExpand), nullptr);
  EXPECT_EQ(eng.job(1).replicas, 64);
}

TEST(PolicyExtensions, ExpandDeclinedWhenGainTooSmall) {
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kElastic;
  cfg.rescale_gap_s = 0.0;
  cfg.min_expand_gain = 0.5;  // require +50% replicas
  PolicyEngine eng(64, cfg);
  eng.submit(spec(0, 8, 8, 5), 0.0);     // 8 used
  eng.submit(spec(1, 8, 64, 3), 1.0);    // sized to 56, below max
  // Completing job 0 frees 8: only a 14% gain for job 1 -> declined.
  auto actions = eng.complete(0, 100.0);
  EXPECT_EQ(find_action(actions, ActionType::kExpand), nullptr);
  EXPECT_EQ(eng.job(1).replicas, 56);
}

TEST(PolicyExtensions, QueuedJobsExemptFromCostBenefit) {
  // Cost/benefit gates only expansions; queued jobs always start.
  PolicyConfig cfg;
  cfg.mode = PolicyMode::kElastic;
  cfg.rescale_gap_s = 0.0;
  cfg.min_remaining_fraction_for_expand = 0.9;
  PolicyEngine eng(64, cfg);
  eng.set_progress_provider([](JobId) { return 0.0; });
  eng.submit(spec(0, 64, 64, 5), 0.0);
  eng.submit(spec(1, 16, 16, 3), 1.0);  // queued
  auto actions = eng.complete(0, 100.0);
  const Action* start = find_action(actions, ActionType::kStart);
  ASSERT_NE(start, nullptr);
  EXPECT_EQ(start->job, 1);
}

TEST(PolicyEngine, AbandonWithdrawsQueuedJob) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 64, 64, 5), 0.0);
  eng.submit(spec(1, 32, 32, 1), 1.0);  // queued behind job 0
  ASSERT_FALSE(eng.job(1).running);
  eng.abandon(1);
  EXPECT_TRUE(eng.job(1).completed);
  EXPECT_EQ(eng.job(1).replicas, 0);
  // The abandoned job never held slots, so accounting is untouched and a
  // later completion must not try to start it.
  EXPECT_EQ(eng.free_slots(), 0);
  auto actions = eng.complete(0, 100.0);
  EXPECT_EQ(find_action(actions, ActionType::kStart), nullptr);
}

TEST(PolicyEngine, AbandonRejectsRunningOrCompletedJobs) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 8, 3), 0.0);
  EXPECT_THROW(eng.abandon(0), PreconditionError);  // running
  eng.complete(0, 10.0);
  EXPECT_THROW(eng.abandon(0), PreconditionError);  // completed
  EXPECT_THROW(eng.abandon(42), PreconditionError);  // unknown
}

TEST(PolicyEngine, ForgetDropsCompletedJobState) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 8, 8, 3), 0.0);
  EXPECT_THROW(eng.forget(0), PreconditionError);  // still running
  eng.complete(0, 10.0);
  EXPECT_TRUE(eng.has_job(0));
  eng.forget(0);
  EXPECT_FALSE(eng.has_job(0));
  EXPECT_THROW(eng.forget(0), PreconditionError);  // already forgotten
  // The id is reusable afterwards — streaming traces recycle nothing, but
  // the engine must not treat the retired id as a duplicate.
  EXPECT_NO_THROW(eng.submit(spec(0, 8, 8, 3), 20.0));
}

TEST(PolicyEngine, EqualPriorityAndTimeTiesBreakByJobId) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 64, 64, 3), 0.0);
  // Identical priority AND submission time: the queue order must still be
  // deterministic — lower job id first.
  eng.submit(spec(2, 16, 16, 3), 5.0);
  eng.submit(spec(1, 16, 16, 3), 5.0);
  auto actions = eng.complete(0, 100.0);
  std::vector<JobId> started;
  for (const auto& a : actions) {
    if (a.type == ActionType::kStart) started.push_back(a.job);
  }
  EXPECT_EQ(started, (std::vector<JobId>{1, 2}));
}

}  // namespace
}  // namespace ehpc::elastic

// ---- in-flight index: edge cases and a differential test ----

namespace ehpc::elastic {
namespace {

TEST(PolicyIndex, TopRunningJobProtectedBehindQueuedHigherPriorityJob) {
  // A queued job of higher priority than every running job sits at the
  // front of the index; the top *running* job must still be protected.
  for (bool protect : {true, false}) {
    PolicyConfig cfg = elastic_cfg();
    cfg.protect_top_job = protect;
    PolicyEngine eng(64, cfg);
    eng.submit(spec(0, 4, 32, 5), 0.0);   // runs at 32
    eng.submit(spec(1, 4, 32, 1), 1.0);   // runs at 32
    eng.submit(spec(2, 64, 64, 9), 2.0);  // cannot fit: queued, index front
    ASSERT_EQ(eng.queued(), std::vector<JobId>{2});
    ASSERT_EQ(eng.running(), (std::vector<JobId>{0, 1}));
    // Job 3 ties job 0's priority, so only protection keeps job 0 whole:
    // job 1 alone can give 28 slots, short of the 40 needed.
    auto actions = eng.submit(spec(3, 40, 40, 5), 3.0);
    if (protect) {
      ASSERT_EQ(actions.size(), 1u);
      EXPECT_EQ(actions[0].type, ActionType::kEnqueue);
      EXPECT_EQ(eng.job(0).replicas, 32);
      EXPECT_EQ(eng.job(1).replicas, 32);
    } else {
      ASSERT_NE(find_action(actions, ActionType::kStart), nullptr);
      EXPECT_EQ(eng.job(3).replicas, 40);
      EXPECT_LT(eng.job(0).replicas, 32);
    }
  }
}

TEST(PolicyIndex, AbandonedAndForgottenJobNeverStarts) {
  PolicyEngine eng(64, elastic_cfg());
  eng.submit(spec(0, 64, 64, 5), 0.0);
  eng.submit(spec(1, 32, 32, 9), 1.0);  // top job protected: queued
  eng.submit(spec(2, 32, 32, 1), 2.0);  // queued
  ASSERT_EQ(eng.queued(), (std::vector<JobId>{1, 2}));
  eng.abandon(1);
  eng.forget(1);
  EXPECT_EQ(eng.queued(), std::vector<JobId>{2});
  auto actions = eng.complete(0, 100.0);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].type, ActionType::kStart);
  EXPECT_EQ(actions[0].job, 2);
  EXPECT_FALSE(eng.has_job(1));
  EXPECT_EQ(eng.running(), std::vector<JobId>{2});
  EXPECT_TRUE(eng.queued().empty());
}

TEST(PolicyIndex, AgingResortLetsOlderLowerPriorityJobOvertake) {
  PolicyConfig cfg = elastic_cfg();
  cfg.aging_rate_per_s = 1.0;
  PolicyEngine eng(64, cfg);
  eng.submit(spec(0, 64, 64, 9), 0.0);
  eng.submit(spec(1, 16, 16, 3), 12.0);  // at t=100: 3 + 88 = 91
  eng.submit(spec(2, 16, 16, 2), 5.0);   // at t=100: 2 + 95 = 97
  eng.submit(spec(3, 16, 16, 1), 10.0);  // at t=100: 1 + 90 = 91
  // Index (PriorityOrder) is 1, 2, 3; effective priority puts 2 first, and
  // the 91-point tie between 1 and 3 keeps PriorityOrder.
  ASSERT_EQ(eng.queued(), (std::vector<JobId>{1, 2, 3}));
  auto actions = eng.complete(0, 100.0);
  std::vector<JobId> started;
  for (const auto& a : actions) {
    if (a.type == ActionType::kStart) started.push_back(a.job);
  }
  EXPECT_EQ(started, (std::vector<JobId>{2, 1, 3}));
}

// Oracle for the in-flight index: the scan-and-sort form of Fig. 2/3.
// complete() scans every job and sorts by (effective priority,
// PriorityOrder); shrink-to-fit rebuilds and sorts the running list on
// every call.
class ReferenceEngine {
 public:
  ReferenceEngine(int slots, PolicyConfig cfg) : free_(slots), cfg_(cfg) {}

  std::function<double(JobId)> progress;

  std::vector<Action> submit(JobSpec spec, double now) {
    if (cfg_.mode == PolicyMode::kRigidMin) spec.max_replicas = spec.min_replicas;
    if (cfg_.mode == PolicyMode::kRigidMax) spec.min_replicas = spec.max_replicas;
    JobState& job = jobs_[spec.id];
    job = JobState{};
    job.spec = spec;
    job.submit_time = now;
    const int replicas = std::min(free_ - cfg_.reserve_slots, spec.max_replicas);
    if (replicas >= spec.min_replicas) {
      start(job, replicas, now);
      return {Action{ActionType::kStart, spec.id, replicas}};
    }
    if (cfg_.mode != PolicyMode::kElastic) return {Action{ActionType::kEnqueue, spec.id, 0}};
    return try_shrink_to_fit(job, now);
  }

  std::vector<Action> complete(JobId id, double now) {
    JobState& done = jobs_.at(id);
    free_ += done.replicas;
    done.replicas = 0;
    done.running = false;
    done.completed = true;
    std::vector<JobState*> candidates;
    for (auto& [jid, st] : jobs_) {
      if (!st.completed) candidates.push_back(&st);
    }
    std::sort(candidates.begin(), candidates.end(), [&](const JobState* a, const JobState* b) {
      const double pa = effective(*a, now);
      const double pb = effective(*b, now);
      if (pa != pb) return pa > pb;
      return PriorityOrder{}(*a, *b);
    });
    std::vector<Action> actions;
    int budget = free_;
    for (JobState* j : candidates) {
      if (budget <= 0) break;
      if (!gap_ok(*j, now)) continue;
      if (j->running && cfg_.mode != PolicyMode::kElastic) continue;
      if (j->replicas >= j->spec.max_replicas) continue;
      const int add = std::min(budget, j->spec.max_replicas - j->replicas);
      if (j->replicas + add < j->spec.min_replicas) continue;
      const bool was_queued = !j->running;
      if (!was_queued && !expand_worthwhile(*j, add)) continue;
      start(*j, j->replicas + add, now);
      budget -= add;
      actions.push_back(Action{was_queued ? ActionType::kStart : ActionType::kExpand,
                               j->spec.id, j->replicas});
    }
    return actions;
  }

  void abandon(JobId id) { jobs_.at(id).completed = true; }
  void forget(JobId id) { jobs_.erase(id); }
  int free_slots() const { return free_; }
  const std::map<JobId, JobState>& jobs() const { return jobs_; }

 private:
  void start(JobState& j, int replicas, double now) {
    free_ -= replicas - j.replicas;
    j.replicas = replicas;
    j.running = true;
    j.last_action_time = now;
  }

  bool gap_ok(const JobState& j, double now) const {
    return now - j.last_action_time >= cfg_.rescale_gap_s;
  }

  double effective(const JobState& j, double now) const {
    double p = static_cast<double>(j.spec.priority);
    if (cfg_.aging_rate_per_s > 0.0 && !j.running && !j.completed) {
      p += cfg_.aging_rate_per_s * std::max(0.0, now - j.submit_time);
    }
    return p;
  }

  bool expand_worthwhile(const JobState& j, int add) const {
    if (cfg_.min_expand_gain > 0.0 &&
        static_cast<double>(add) < cfg_.min_expand_gain * static_cast<double>(j.replicas)) {
      return false;
    }
    return !(cfg_.min_remaining_fraction_for_expand > 0.0 && progress &&
             progress(j.spec.id) < cfg_.min_remaining_fraction_for_expand);
  }

  std::vector<Action> try_shrink_to_fit(JobState& job, double now) {
    std::vector<JobState*> order;
    for (auto& [jid, st] : jobs_) {
      if (st.running) order.push_back(&st);
    }
    std::sort(order.begin(), order.end(),
              [](const JobState* a, const JobState* b) { return PriorityOrder{}(*a, *b); });
    const std::size_t stop = cfg_.protect_top_job ? 1 : 0;
    const double job_priority = effective(job, now);
    int num_to_free = job.spec.min_replicas - free_ + cfg_.reserve_slots;
    for (std::size_t i = order.size(); num_to_free > 0 && i-- > stop;) {
      const JobState& j = *order[i];
      if (!gap_ok(j, now)) continue;
      if (effective(j, now) > job_priority) break;
      if (j.replicas > j.spec.min_replicas) {
        num_to_free -= j.replicas - std::max(j.spec.min_replicas, j.replicas - num_to_free);
      }
    }
    if (num_to_free > 0) return {Action{ActionType::kEnqueue, job.spec.id, 0}};
    std::vector<Action> actions;
    int max_to_free = job.spec.max_replicas - free_ + cfg_.reserve_slots;
    for (std::size_t i = order.size(); max_to_free > 0 && i-- > stop;) {
      JobState& j = *order[i];
      if (!gap_ok(j, now)) continue;
      if (effective(j, now) > job_priority) break;
      if (j.replicas > j.spec.min_replicas) {
        const int new_replicas = std::max(j.spec.min_replicas, j.replicas - max_to_free);
        max_to_free -= j.replicas - new_replicas;
        free_ += j.replicas - new_replicas;
        j.replicas = new_replicas;
        j.last_action_time = now;
        actions.push_back(Action{ActionType::kShrink, j.spec.id, new_replicas});
      }
    }
    const int replicas = std::min(free_ - cfg_.reserve_slots, job.spec.max_replicas);
    start(job, replicas, now);
    actions.push_back(Action{ActionType::kStart, job.spec.id, replicas});
    return actions;
  }

  int free_;
  PolicyConfig cfg_;
  std::map<JobId, JobState> jobs_;
};

auto fields(const Action& a) { return std::tuple(a.type, a.job, a.target_replicas); }

auto fields(const JobState& j) {
  return std::tuple(j.spec.id, j.spec.min_replicas, j.spec.max_replicas, j.spec.priority,
                    j.submit_time, j.replicas, j.running, j.completed, j.last_action_time);
}

void expect_same_actions(const std::vector<Action>& got, const std::vector<Action>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(fields(got[i]), fields(want[i])) << i;
}

struct DiffCase {
  PolicyMode mode;
  double aging_rate_per_s;
  bool protect_top_job;
  int reserve_slots;
};

// Random submit / complete / abandon / forget sequences (ties in priority
// and submit time included, forgotten ids reused) drive the engine and the
// reference side by side; every step must emit the same actions and leave
// every job in the same state.
class PolicyDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(PolicyDifferential, MatchesScanAndSortReference) {
  std::vector<DiffCase> cases;
  for (PolicyMode mode : {PolicyMode::kRigidMin, PolicyMode::kRigidMax,
                          PolicyMode::kMoldable, PolicyMode::kElastic}) {
    for (double aging : {0.0, 0.05}) {
      for (bool protect : {true, false}) {
        for (int reserve : {0, 1}) cases.push_back({mode, aging, protect, reserve});
      }
    }
  }
  Rng rng(GetParam());
  for (const DiffCase& c : cases) {
    SCOPED_TRACE(to_string(c.mode) + " aging=" + std::to_string(c.aging_rate_per_s) +
                 " protect=" + std::to_string(c.protect_top_job) +
                 " reserve=" + std::to_string(c.reserve_slots));
    PolicyConfig cfg;
    cfg.mode = c.mode;
    cfg.aging_rate_per_s = c.aging_rate_per_s;
    cfg.protect_top_job = c.protect_top_job;
    cfg.reserve_slots = c.reserve_slots;
    cfg.rescale_gap_s = rng.chance(0.3) ? 0.0 : rng.uniform(0.0, 200.0);
    cfg.min_expand_gain = rng.chance(0.5) ? 0.0 : 0.25;
    cfg.min_remaining_fraction_for_expand = rng.chance(0.5) ? 0.0 : 0.3;
    const auto progress = [](JobId id) { return static_cast<double>(id % 10) / 10.0; };
    PolicyEngine eng(64, cfg);
    eng.set_progress_provider(progress);
    ReferenceEngine ref(64, cfg);
    ref.progress = progress;

    std::vector<JobId> forgotten;
    int next_id = 0;
    double now = 0.0;
    for (int step = 0; step < 300; ++step) {
      if (rng.chance(0.8)) now += rng.uniform(0.0, 90.0);  // else a same-time event
      std::vector<JobId> running;
      std::vector<JobId> queued;
      std::vector<JobId> completed;
      for (const auto& [id, st] : ref.jobs()) {
        if (st.running) running.push_back(id);
        else if (st.completed) completed.push_back(id);
        else queued.push_back(id);
      }
      const auto pick = [&](const std::vector<JobId>& ids) {
        return ids[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(ids.size()) - 1))];
      };
      const double op = rng.uniform(0.0, 1.0);
      if (op < 0.5 || running.empty()) {
        JobId id = next_id++;
        if (!forgotten.empty() && rng.chance(0.2)) {
          id = forgotten.back();
          forgotten.pop_back();
        }
        const int min_r = static_cast<int>(rng.uniform_int(1, 20));
        const int max_r = min_r + static_cast<int>(rng.uniform_int(0, 40));
        const JobSpec s = spec(id, min_r, max_r, static_cast<int>(rng.uniform_int(1, 4)));
        expect_same_actions(eng.submit(s, now), ref.submit(s, now));
      } else if (op < 0.8) {
        const JobId id = pick(running);
        expect_same_actions(eng.complete(id, now), ref.complete(id, now));
      } else if (op < 0.9 && !queued.empty()) {
        const JobId id = pick(queued);
        eng.abandon(id);
        ref.abandon(id);
      } else if (!completed.empty()) {
        const JobId id = pick(completed);
        eng.forget(id);
        ref.forget(id);
        forgotten.push_back(id);
      }
      ASSERT_EQ(eng.free_slots(), ref.free_slots()) << "step " << step;
      std::vector<JobId> ids;
      for (const auto& [id, st] : ref.jobs()) {
        ids.push_back(id);
        EXPECT_EQ(fields(eng.job(id)), fields(st)) << "job " << id << " step " << step;
      }
      ASSERT_EQ(eng.all_jobs(), ids) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PolicyDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace ehpc::elastic
