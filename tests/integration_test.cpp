// End-to-end integration tests: a scaled version of the paper's Section-3
// experiment must display the documented qualitative behaviour, and the
// utility-driven controller must beat the utility-blind baselines on the
// metrics the paper optimizes.

#include <gtest/gtest.h>

#include "scenario/experiment.hpp"
#include "scenario/scenario.hpp"

using namespace heteroplace;

namespace {

scenario::Scenario mid_scenario() {
  auto s = scenario::section3_scaled(0.2);  // 5 nodes, 160 jobs
  s.seed = 42;
  return s;
}

const scenario::ExperimentResult& utility_run() {
  static const scenario::ExperimentResult r = [] {
    scenario::ExperimentOptions opt;
    opt.validate_invariants = true;
    return scenario::run_experiment(mid_scenario(), opt);
  }();
  return r;
}

}  // namespace

TEST(Section3Shape, AllJobsCompleteWithoutInvariantViolations) {
  const auto& r = utility_run();
  EXPECT_EQ(r.summary.jobs_completed, r.summary.jobs_submitted);
  EXPECT_EQ(r.summary.invariant_violations, 0);
}

TEST(Section3Shape, EarlyPhaseTransactionalGetsItsDemand) {
  const auto& r = utility_run();
  const auto* alloc = r.series.find("tx_alloc_mhz");
  const auto* demand = r.series.find("tx_demand_mhz");
  ASSERT_NE(alloc, nullptr);
  ASSERT_NE(demand, nullptr);
  // During the first few cycles contention is low: the app receives most
  // of its maximum-utility demand. (Window ends before job arrivals crowd
  // the scaled cluster.)
  const double a = alloc->mean_over(600.0, 2400.0);
  const double d = demand->mean_over(600.0, 2400.0);
  EXPECT_GT(a, 0.7 * d);
}

TEST(Section3Shape, UtilitiesEqualizeWhenContended) {
  const auto& r = utility_run();
  EXPECT_GT(r.summary.equalization_gap.count(), 10u);
  EXPECT_LT(r.summary.equalization_gap.mean(), 0.2);
}

TEST(Section3Shape, LongRunningUtilityFallsAsSystemCrowds) {
  const auto& r = utility_run();
  const auto* lr = r.series.find("lr_hyp_utility");
  ASSERT_NE(lr, nullptr);
  const double t_end = r.summary.sim_end_time_s;
  const double early = lr->mean_over(0.0, 0.15 * t_end);
  const double mid = lr->mean_over(0.5 * t_end, 0.75 * t_end);
  EXPECT_LT(mid, early);
}

TEST(Section3Shape, TransactionalAllocationRecoversAtTheEnd) {
  const auto& r = utility_run();
  const auto* alloc = r.series.find("tx_alloc_mhz");
  const auto* demand = r.series.find("tx_demand_mhz");
  ASSERT_NE(alloc, nullptr);
  const double t_end = r.summary.sim_end_time_s;
  const double mid = alloc->mean_over(0.5 * t_end, 0.7 * t_end);
  const double late = alloc->value_at(t_end);
  EXPECT_GT(late, mid);
  // Fully recovered: allocation ≈ demand at the end.
  EXPECT_GT(late, 0.9 * demand->value_at(t_end));
}

TEST(Section3Shape, UnevenCpuEvenUtility) {
  // The paper's headline: CPU split is uneven while utility is even.
  const auto& r = utility_run();
  const auto* tx_alloc = r.series.find("tx_alloc_mhz");
  const auto* lr_alloc = r.series.find("lr_alloc_mhz");
  const auto* gap = r.series.find("utility_gap");
  ASSERT_NE(tx_alloc, nullptr);
  ASSERT_NE(lr_alloc, nullptr);
  ASSERT_NE(gap, nullptr);
  const double t_end = r.summary.sim_end_time_s;
  // Mid-experiment: allocations differ by >25% while utilities differ by
  // far less in absolute terms.
  const double tx = tx_alloc->mean_over(0.45 * t_end, 0.7 * t_end);
  const double lr = lr_alloc->mean_over(0.45 * t_end, 0.7 * t_end);
  const double g = gap->mean_over(0.45 * t_end, 0.7 * t_end);
  EXPECT_GT(std::fabs(tx - lr) / std::max(tx, lr), 0.25);
  EXPECT_LT(g, 0.15);
}

TEST(Section3Shape, ControllerUsesTheWholeCluster) {
  const auto& r = utility_run();
  const auto* tx = r.series.find("tx_alloc_mhz");
  const auto* lr = r.series.find("lr_alloc_mhz");
  const double t_end = r.summary.sim_end_time_s;
  const double capacity = 5 * 12000.0;
  // In the crowded phase most capacity is allocated. (Some CPU is
  // physically strandable: a node packed with 3 single-processor jobs can
  // use at most 9000 of its 12000 MHz, so 100% is not reachable.)
  const double used = tx->mean_over(0.4 * t_end, 0.7 * t_end) +
                      lr->mean_over(0.4 * t_end, 0.7 * t_end);
  EXPECT_GT(used, 0.70 * capacity);
}

// --- policy comparison ------------------------------------------------------------

namespace {
scenario::ExperimentResult run_policy(scenario::PolicyKind p) {
  scenario::ExperimentOptions opt;
  opt.policy = p;
  opt.max_sim_time_s = 1.0e6;
  return scenario::run_experiment(mid_scenario(), opt);
}
}  // namespace

TEST(PolicyComparison, UtilityDrivenBalancesBetterThanStatic) {
  const auto& util_run = utility_run();
  const auto stat = run_policy(scenario::PolicyKind::kStaticPartition);
  // The utility-driven controller should achieve a higher *minimum* of
  // (mean tx utility, mean job utility) — that is what equalization buys.
  const double util_min =
      std::min(util_run.summary.tx_utility.mean(), util_run.summary.job_utility.mean());
  const double stat_min =
      std::min(stat.summary.tx_utility.mean(), stat.summary.job_utility.mean());
  EXPECT_GT(util_min, stat_min);
}

TEST(PolicyComparison, UtilityDrivenBalancesBetterThanEqualShare) {
  // Equal-share is utility-blind: with 160 jobs vs 1 app it hands the job
  // class nearly everything and starves the app (it trivially meets all
  // job goals, which is why goal-met is the wrong metric here). The
  // utility-driven controller keeps the worst-off class far better off.
  const auto& util_run = utility_run();
  const auto prop = run_policy(scenario::PolicyKind::kProportionalEqual);
  const double util_min =
      std::min(util_run.summary.tx_utility.mean(), util_run.summary.job_utility.mean());
  const double prop_min =
      std::min(prop.summary.tx_utility.mean(), prop.summary.job_utility.mean());
  EXPECT_GT(util_min, prop_min + 0.1);
}

TEST(PolicyComparison, AllPoliciesKeepClusterFeasible) {
  for (auto p : {scenario::PolicyKind::kStaticPartition,
                 scenario::PolicyKind::kProportionalEqual,
                 scenario::PolicyKind::kProportionalDemand}) {
    scenario::ExperimentOptions opt;
    opt.policy = p;
    opt.validate_invariants = true;
    opt.horizon_override_s = 30000.0;  // bounded: some baselines strand jobs
    const auto r = scenario::run_experiment(mid_scenario(), opt);
    EXPECT_EQ(r.summary.invariant_violations, 0) << scenario::to_string(p);
  }
}

TEST(ServiceDifferentiation, GoldOutperformsSilver) {
  auto s = scenario::service_differentiation_scenario();
  // Scale down for test speed; loosen RT goals so the combined TX demand
  // fits the smaller cluster (≈94% of 72000 MHz) and the equalized level
  // stays positive — importance priorities are defined on positive
  // utility.
  s.domains[0].cluster.nodes = 6;
  s.jobs.count = 40;
  s.jobs.tmpl.work = util::MhzSeconds{1.0e7};
  s.apps[0].trace = workload::DemandTrace{3.0};
  s.apps[0].spec.rt_goal = util::Seconds{2.0};
  s.apps[1].trace = workload::DemandTrace{3.0};
  s.apps[1].spec.rt_goal = util::Seconds{4.0};
  for (auto& app : s.apps) app.spec.max_instances = 6;
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto r = scenario::run_experiment(s, opt);
  EXPECT_EQ(r.summary.invariant_violations, 0);

  const auto* gold = r.series.find("tx_utility_gold");
  const auto* silver = r.series.find("tx_utility_silver");
  ASSERT_NE(gold, nullptr);
  ASSERT_NE(silver, nullptr);
  const double t_end = r.summary.sim_end_time_s;
  // With higher importance, gold's weighted utility stays at or above
  // silver's through the contended phase.
  EXPECT_GE(gold->mean_over(0.3 * t_end, 0.8 * t_end),
            silver->mean_over(0.3 * t_end, 0.8 * t_end) - 0.05);
}
