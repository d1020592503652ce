// Tests for core::World (job/app registry) and cluster::PlacementPlan
// helpers.

#include "core/world.hpp"

#include <gtest/gtest.h>

#include "cluster/actions.hpp"
#include "cluster/placement.hpp"
#include "util/rng.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;
using core::World;
using workload::JobPhase;
using workload::JobSpec;

namespace {
JobSpec spec(unsigned id, double submit = 0.0) {
  JobSpec s;
  s.id = util::JobId{id};
  s.work = util::MhzSeconds{1e6};
  s.max_speed = 3000_mhz;
  s.memory = 1300_mb;
  s.submit_time = util::Seconds{submit};
  s.completion_goal = 1000_s;
  return s;
}
}  // namespace

TEST(World, SubmitAndLookup) {
  World w;
  w.submit_job(spec(5));
  EXPECT_TRUE(w.job_exists(util::JobId{5}));
  EXPECT_FALSE(w.job_exists(util::JobId{6}));
  EXPECT_EQ(w.job(util::JobId{5}).id().get(), 5u);
  EXPECT_THROW((void)w.job(util::JobId{6}), std::out_of_range);
}

TEST(World, DuplicateSubmissionRejected) {
  World w;
  w.submit_job(spec(1));
  EXPECT_THROW(w.submit_job(spec(1)), std::invalid_argument);
}

TEST(World, ActiveJobsExcludeCompleted) {
  World w;
  w.submit_job(spec(1));
  auto& j2 = w.submit_job(spec(2));
  EXPECT_EQ(w.active_jobs().size(), 2u);
  j2.set_phase(0_s, JobPhase::kCompleted);
  EXPECT_EQ(w.active_jobs().size(), 1u);
  EXPECT_EQ(w.completed_count(), 1u);
  EXPECT_EQ(w.submitted_count(), 2u);
}

TEST(World, ActiveJobsPreserveSubmissionOrder) {
  World w;
  w.submit_job(spec(9, 10.0));
  w.submit_job(spec(2, 20.0));
  w.submit_job(spec(5, 30.0));
  const auto active = w.active_jobs();
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0]->id().get(), 9u);
  EXPECT_EQ(active[1]->id().get(), 2u);
  EXPECT_EQ(active[2]->id().get(), 5u);
}

// Property: the live-job index never disagrees with a filter over
// job_order(), whatever mix of submits, completions, holds, extracts and
// adopts got it there — for both active_jobs() overloads.
class WorldLiveIndexFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorldLiveIndexFuzz, MatchesReferenceFilterOverJobOrder) {
  util::Rng rng(GetParam());
  World w;
  const World& cw = w;
  std::vector<workload::Job> detached;  // extracted, awaiting adoption
  unsigned next_id = 0;
  auto random_job = [&]() -> workload::Job& {
    const auto& order = w.job_order();
    return w.job(order[rng.uniform_int(0, order.size() - 1)]);
  };

  for (int step = 0; step < 600; ++step) {
    const auto op = rng.uniform_int(0, 5);
    if (op == 0 || w.job_order().empty()) {
      w.submit_job(spec(next_id++, static_cast<double>(step)));
    } else if (op == 1) {
      workload::Job& j = random_job();
      if (j.phase() != JobPhase::kCompleted) {
        j.set_phase(util::Seconds{static_cast<double>(step)}, JobPhase::kCompleted);
      }
    } else if (op == 2) {
      random_job().set_held(true);
    } else if (op == 3) {
      random_job().set_held(false);
    } else if (op == 4) {
      detached.push_back(w.extract_job(random_job().id()));
    } else if (!detached.empty()) {
      const auto k = rng.uniform_int(0, detached.size() - 1);
      w.adopt_job(std::move(detached[k]));
      detached.erase(detached.begin() + static_cast<std::ptrdiff_t>(k));
    }

    std::vector<util::JobId> want;
    std::size_t completed = 0;
    for (util::JobId id : w.job_order()) {
      const workload::Job& j = cw.job(id);
      if (j.phase() == JobPhase::kCompleted) {
        ++completed;
      } else if (!j.held()) {
        want.push_back(id);
      }
    }
    // The const overload first, so it also sees entries the non-const
    // call is about to prune.
    std::vector<util::JobId> got_const;
    for (const workload::Job* j : cw.active_jobs()) got_const.push_back(j->id());
    EXPECT_EQ(cw.completed_count(), completed) << "step " << step;
    std::vector<util::JobId> got;
    for (workload::Job* j : w.active_jobs()) got.push_back(j->id());
    ASSERT_EQ(got_const, want) << "step " << step;
    ASSERT_EQ(got, want) << "step " << step;
    ASSERT_EQ(w.completed_count(), completed) << "step " << step;
    ASSERT_EQ(w.submitted_count(), w.job_order().size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldLiveIndexFuzz, ::testing::Values(1u, 7u, 99u));

TEST(World, AppLookup) {
  World w;
  workload::TxAppSpec app;
  app.id = util::AppId{3};
  app.name = "web";
  w.add_app(workload::TxApp{app, workload::DemandTrace{5.0}});
  EXPECT_TRUE(w.app_exists(util::AppId{3}));
  EXPECT_FALSE(w.app_exists(util::AppId{9}));
  EXPECT_EQ(w.app(util::AppId{3}).spec().name, "web");
  EXPECT_THROW((void)w.app(util::AppId{9}), std::out_of_range);
}

TEST(World, AppLookupByIdNotByPosition) {
  // Ids are looked up through the index map, independent of insertion
  // order; duplicates are rejected like duplicate job ids.
  World w;
  for (unsigned id : {7u, 2u, 5u}) {
    workload::TxAppSpec app;
    app.id = util::AppId{id};
    app.name = "app" + std::to_string(id);
    w.add_app(workload::TxApp{app, workload::DemandTrace{1.0}});
  }
  EXPECT_EQ(w.app(util::AppId{2}).spec().name, "app2");
  EXPECT_EQ(w.app(util::AppId{7}).spec().name, "app7");
  EXPECT_EQ(w.app(util::AppId{5}).spec().name, "app5");
  workload::TxAppSpec dup;
  dup.id = util::AppId{2};
  EXPECT_THROW(w.add_app(workload::TxApp{dup, workload::DemandTrace{1.0}}),
               std::invalid_argument);
}

TEST(World, AppMutSwapsDemandTrace) {
  // The federation re-splits app demand mid-run through app_mut.
  World w;
  workload::TxAppSpec app;
  app.id = util::AppId{0};
  w.add_app(workload::TxApp{app, workload::DemandTrace{8.0}});
  w.app_mut(util::AppId{0}).set_trace(workload::DemandTrace{2.0});
  EXPECT_DOUBLE_EQ(w.app(util::AppId{0}).arrival_rate(0_s), 2.0);
  EXPECT_THROW((void)w.app_mut(util::AppId{1}), std::out_of_range);
}

TEST(PlacementPlan, FindJobAndTotals) {
  cluster::PlacementPlan p;
  p.jobs.push_back({util::JobId{1}, util::NodeId{0}, 2000_mhz});
  p.jobs.push_back({util::JobId{2}, util::NodeId{1}, 1000_mhz});
  p.instances.push_back({util::AppId{0}, util::NodeId{0}, 5000_mhz});
  p.instances.push_back({util::AppId{0}, util::NodeId{1}, 4000_mhz});
  p.instances.push_back({util::AppId{1}, util::NodeId{2}, 3000_mhz});

  ASSERT_TRUE(p.find_job(util::JobId{1}).has_value());
  EXPECT_EQ(p.find_job(util::JobId{1})->node.get(), 0u);
  EXPECT_FALSE(p.find_job(util::JobId{7}).has_value());
  EXPECT_DOUBLE_EQ(p.total_job_cpu().get(), 3000.0);
  EXPECT_DOUBLE_EQ(p.app_cpu(util::AppId{0}).get(), 9000.0);
  EXPECT_DOUBLE_EQ(p.app_cpu(util::AppId{1}).get(), 3000.0);
  EXPECT_DOUBLE_EQ(p.app_cpu(util::AppId{5}).get(), 0.0);
}

TEST(ActionCounts, RecordAndTotals) {
  cluster::ActionCounts c;
  c.record(cluster::ActionType::kSuspendJob);
  c.record(cluster::ActionType::kResumeJob);
  c.record(cluster::ActionType::kMigrateJob);
  c.record(cluster::ActionType::kStartJob);
  c.record(cluster::ActionType::kResizeCpu);
  EXPECT_EQ(c.total_disruptive(), 3);
  EXPECT_EQ(c.starts, 1);
  EXPECT_EQ(c.resizes, 1);
}

TEST(ActionLatencies, LatencyLookup) {
  cluster::ActionLatencies lat;
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kStartJob).get(), 60.0);
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kSuspendJob).get(), 15.0);
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kResumeJob).get(), 90.0);
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kMigrateJob).get(), 120.0);
  EXPECT_DOUBLE_EQ(lat.latency_of(cluster::ActionType::kResizeCpu).get(), 0.0);
}
