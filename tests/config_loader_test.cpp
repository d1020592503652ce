// Tests for the config-driven scenario loader.

#include "scenario/config_loader.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/result_digest.hpp"

using namespace heteroplace;

TEST(ConfigLoader, EmptyConfigYieldsSection3Defaults) {
  const auto s = scenario::scenario_from_config(util::Config{});
  const auto ref = scenario::section3_scenario();
  EXPECT_EQ(s.domains[0].cluster.nodes, ref.domains[0].cluster.nodes);
  EXPECT_DOUBLE_EQ(s.domains[0].cluster.cpu_per_node_mhz, ref.domains[0].cluster.cpu_per_node_mhz);
  EXPECT_EQ(s.jobs.count, ref.jobs.count);
  EXPECT_DOUBLE_EQ(s.jobs.mean_interarrival_s, ref.jobs.mean_interarrival_s);
  EXPECT_DOUBLE_EQ(s.controller.cycle_s, ref.controller.cycle_s);
  ASSERT_EQ(s.apps.size(), 1u);
  EXPECT_DOUBLE_EQ(s.apps[0].trace.rate_at(util::Seconds{0.0}), 24.0);
}

TEST(ConfigLoader, OverridesApply) {
  const auto cfg = util::Config::from_string(
      "nodes = 10\n"
      "cycle_s = 300\n"
      "jobs.count = 50\n"
      "jobs.work_mhz_s = 1.2e7\n"
      "jobs.utility_shape = sigmoid\n"
      "app.0.lambda = 12\n"
      "app.0.rt_goal_s = 0.5\n");
  const auto s = scenario::scenario_from_config(cfg);
  EXPECT_EQ(s.domains[0].cluster.nodes, 10);
  EXPECT_DOUBLE_EQ(s.controller.cycle_s, 300.0);
  EXPECT_EQ(s.jobs.count, 50);
  EXPECT_DOUBLE_EQ(s.jobs.tmpl.work.get(), 1.2e7);
  EXPECT_EQ(s.jobs.utility_shape, "sigmoid");
  EXPECT_DOUBLE_EQ(s.apps[0].trace.rate_at(util::Seconds{0.0}), 12.0);
  EXPECT_DOUBLE_EQ(s.apps[0].spec.rt_goal.get(), 0.5);
}

TEST(ConfigLoader, MultipleApps) {
  const auto cfg = util::Config::from_string(
      "apps = 2\n"
      "app.0.name = gold\n"
      "app.0.importance = 2\n"
      "app.1.name = silver\n"
      "app.1.lambda = 6\n");
  const auto s = scenario::scenario_from_config(cfg);
  ASSERT_EQ(s.apps.size(), 2u);
  EXPECT_EQ(s.apps[0].spec.name, "gold");
  EXPECT_DOUBLE_EQ(s.apps[0].spec.importance, 2.0);
  EXPECT_EQ(s.apps[1].spec.name, "silver");
  EXPECT_DOUBLE_EQ(s.apps[1].trace.rate_at(util::Seconds{0.0}), 6.0);
  EXPECT_EQ(s.apps[0].spec.id.get(), 0u);
  EXPECT_EQ(s.apps[1].spec.id.get(), 1u);
}

TEST(ConfigLoader, ZeroAppsAllowed) {
  const auto cfg = util::Config::from_string("apps = 0\n");
  const auto s = scenario::scenario_from_config(cfg);
  EXPECT_TRUE(s.apps.empty());
}

TEST(ConfigLoader, UnknownKeyRejected) {
  const auto cfg = util::Config::from_string("nodez = 10\n");
  EXPECT_THROW((void)scenario::scenario_from_config(cfg), util::ConfigError);
}

TEST(ConfigLoader, UnknownAppKeyRejected) {
  const auto cfg = util::Config::from_string("app.0.lamda = 10\n");  // typo
  EXPECT_THROW((void)scenario::scenario_from_config(cfg), util::ConfigError);
}

TEST(ConfigLoader, MalformedValueRejected) {
  const auto cfg = util::Config::from_string("nodes = many\n");
  EXPECT_THROW((void)scenario::scenario_from_config(cfg), util::ConfigError);
}

TEST(ConfigLoader, AppCountOutOfRangeRejected) {
  EXPECT_THROW(
      (void)scenario::scenario_from_config(util::Config::from_string("apps = 1000\n")),
      util::ConfigError);
}

TEST(ConfigLoader, RoundTripsThroughConfigText) {
  const auto cfg = util::Config::from_string(
      "name = roundtrip\n"
      "nodes = 7\n"
      "apps = 2\n"
      "app.0.lambda = 9\n"
      "app.1.rt_goal_s = 3\n");
  const auto s1 = scenario::scenario_from_config(cfg);
  const std::string text = scenario::scenario_to_config(s1);
  const auto s2 = scenario::scenario_from_config(util::Config::from_string(text));
  EXPECT_EQ(s2.name, "roundtrip");
  EXPECT_EQ(s2.domains[0].cluster.nodes, 7);
  ASSERT_EQ(s2.apps.size(), 2u);
  EXPECT_DOUBLE_EQ(s2.apps[0].trace.rate_at(util::Seconds{0.0}), 9.0);
  EXPECT_DOUBLE_EQ(s2.apps[1].spec.rt_goal.get(), 3.0);
}

TEST(ConfigLoader, LoadedScenarioActuallyRuns) {
  const auto cfg = util::Config::from_string(
      "name = mini\n"
      "nodes = 3\n"
      "jobs.count = 6\n"
      "jobs.work_mhz_s = 3e6\n"
      "app.0.lambda = 2\n"
      "app.0.rt_goal_s = 6\n");
  const auto s = scenario::scenario_from_config(cfg);
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto r = scenario::run_experiment(s, opt);
  EXPECT_EQ(r.summary.jobs_completed, 6);
  EXPECT_EQ(r.summary.invariant_violations, 0);
}

TEST(ConfigLoader, FederatedDefaultsToOneDomain) {
  const auto fs = scenario::scenario_from_config(util::Config{});
  ASSERT_EQ(fs.domains.size(), 1u);
  EXPECT_EQ(fs.domains[0].cluster.nodes, scenario::section3_scenario().domains[0].cluster.nodes);
  EXPECT_EQ(fs.router, "least-loaded");
  EXPECT_DOUBLE_EQ(fs.domains[0].first_cycle_at_s, -1.0);  // auto-stagger
}

TEST(ConfigLoader, FederatedDomainsSplitAndOverride) {
  const auto cfg = util::Config::from_string(
      "nodes = 10\n"
      "domains = 3\n"
      "router = sticky\n"
      "domain.0.name = primary\n"
      "domain.0.nodes = 6\n"
      "domain.1.cpu_per_node_mhz = 6000\n"
      "domain.2.first_cycle_at_s = 150\n");
  const auto fs = scenario::scenario_from_config(cfg);
  ASSERT_EQ(fs.domains.size(), 3u);
  EXPECT_EQ(fs.router, "sticky");
  EXPECT_EQ(fs.domains[0].name, "primary");
  EXPECT_EQ(fs.domains[0].cluster.nodes, 6);
  // Unoverridden domains keep the even split of the global pool (10 → 4/3/3).
  EXPECT_EQ(fs.domains[1].cluster.nodes, 3);
  EXPECT_DOUBLE_EQ(fs.domains[1].cluster.cpu_per_node_mhz, 6000.0);
  EXPECT_EQ(fs.domains[2].cluster.nodes, 3);
  EXPECT_DOUBLE_EQ(fs.domains[2].first_cycle_at_s, 150.0);
}

TEST(ConfigLoader, FederatedExplicitNodesBeatTheEvenSplit) {
  // Regression: 2 global nodes over 4 domains is fine when every domain
  // gets an explicit node count — the even-split default must not be
  // validated before the overrides apply.
  const auto fs = scenario::scenario_from_config(util::Config::from_string(
      "nodes = 2\n"
      "domains = 4\n"
      "domain.0.nodes = 1\n"
      "domain.1.nodes = 1\n"
      "domain.2.nodes = 1\n"
      "domain.3.nodes = 1\n"));
  ASSERT_EQ(fs.domains.size(), 4u);
  for (const auto& d : fs.domains) EXPECT_EQ(d.cluster.nodes, 1);
  // And a domain left at zero nodes fails loudly, as a ConfigError.
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("nodes = 2\ndomains = 4\n")),
               util::ConfigError);
}

TEST(ConfigLoader, FederatedRejectsUnknownRouterAtLoadTime) {
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("domains = 2\nrouter = stickyy\n")),
               util::ConfigError);
}

TEST(ConfigLoader, FederatedRejectsBadDomainKeys) {
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("domains = 0\n")),
               util::ConfigError);
  EXPECT_THROW((void)scenario::scenario_from_config(
                   util::Config::from_string("domains = 2\ndomain.0.nodez = 1\n")),
               util::ConfigError);
}

TEST(ConfigLoader, RunExperimentRejectsMultiDomainScenario) {
  // One schema loads any domain count; the one-domain adaptor refuses
  // anything but exactly one domain instead of silently running domain 0.
  auto s = scenario::scenario_from_config(util::Config::from_string(
      "nodes = 4\ndomains = 2\njobs.count = 2\njobs.work_mhz_s = 3e6\n"));
  ASSERT_EQ(s.domains.size(), 2u);
  EXPECT_THROW((void)scenario::run_experiment(s), std::invalid_argument);
  s.domains.clear();
  EXPECT_THROW((void)scenario::run_experiment(s), std::invalid_argument);
}

TEST(ConfigLoader, MultiDomainScenarioActuallyRuns) {
  const auto cfg = util::Config::from_string(
      "name = mini-fed\n"
      "nodes = 4\n"
      "domains = 2\n"
      "jobs.count = 6\n"
      "jobs.work_mhz_s = 3e6\n"
      "app.0.lambda = 2\n"
      "app.0.rt_goal_s = 6\n");
  const auto fs = scenario::scenario_from_config(cfg);
  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto r = scenario::run_federated_experiment(fs, opt);
  EXPECT_EQ(r.summary.jobs_completed, 6);
  EXPECT_EQ(r.summary.invariant_violations, 0);
}

// Every subsystem on: 3 domains with machine classes and per-domain
// overrides, constraints, migration with link overrides, power, faults
// (stochastic and explicit), obs and SLOs, plus values that need more
// than 6 significant digits.
constexpr const char* kEverythingOnConfig =
    "name = everything\n"
    "seed = 5\n"
    "horizon_s = 20000\n"
    "engine.threads = 2\n"
    "classes = arm,x86\n"
    "class.x86.arch = x86_64\n"
    "class.x86.cores = 4\n"
    "class.x86.core_mhz = 3000\n"
    "class.x86.mem_mb = 4096\n"
    "class.x86.count = 5\n"
    "class.arm.arch = arm64\n"
    "class.arm.cores = 8\n"
    "class.arm.core_mhz = 2000.123456789\n"
    "class.arm.speed_factor = 0.9\n"
    "class.arm.mem_mb = 8192\n"
    "class.arm.count = 3\n"
    "domains = 3\n"
    "router = capacity-weighted\n"
    "domain.0.name = east\n"
    "domain.0.class.arm.count = 2\n"
    "domain.1.power_cap_w = 2500\n"
    "domain.2.first_cycle_at_s = 150\n"
    "latency.start_job = 99\n"
    "solver.protect_completion_horizon_s = 1200\n"
    "jobs.count = 10\n"
    "jobs.mean_interarrival_s = 900\n"
    "jobs.tail_count = 3\n"
    "jobs.tail_mean_interarrival_s = 1500\n"
    "jobs.work_mhz_s = 4800123\n"
    "jobs.importance = 2\n"
    "jobs.constraint.arch = x86_64\n"
    "apps = 2\n"
    "app.0.name = web\n"
    "app.0.lambda = 2.123456789\n"
    "app.0.rt_goal_s = 6\n"
    "app.1.name = api\n"
    "app.1.lambda = 1\n"
    "app.1.rt_goal_s = 8\n"
    "app.1.constraint.arch = arm64\n"
    "migration.enabled = true\n"
    "migration.policy = drain+rebalance\n"
    "migration.check_interval_s = 300\n"
    "migration.max_transfer_retries = 2\n"
    "bandwidth.0.1 = 50\n"
    "link_latency.1.2 = 3.5\n"
    "power.enabled = true\n"
    "power.idle_timeout_s = 1200\n"
    "fault.enabled = true\n"
    "fault.node_mttf_s = 40000\n"
    "fault.node_mttr_s = 2000\n"
    "fault.events = 3\n"
    "fault.event.0.kind = node-crash\n"
    "fault.event.0.domain = 1\n"
    "fault.event.0.at_s = 5000\n"
    "fault.event.0.duration_s = 3000\n"
    "fault.event.1.kind = link-down\n"
    "fault.event.1.from = 0\n"
    "fault.event.1.to = 1\n"
    "fault.event.1.at_s = 8000\n"
    "fault.event.1.duration_s = 2000\n"
    "fault.event.1.severity = 0.5\n"
    "fault.event.2.kind = blackout\n"
    "fault.event.2.domain = 2\n"
    "fault.event.2.at_s = 12000\n"
    "fault.event.2.duration_s = 1500\n"
    "obs.trace = ring\n"
    "obs.trace_ring_capacity = 4096\n"
    "obs.audit = ring\n"
    "obs.audit_ring_capacity = 256\n"
    "slos = web,jobs\n"
    "slo.web.target = 0.9\n"
    "slo.jobs.target = 0.5\n"
    "slo.jobs.burn_threshold = 1.5\n";

TEST(ConfigLoader, PrintedConfigRoundTripsEverySubsystem) {
  const auto s1 = scenario::scenario_from_config(util::Config::from_string(kEverythingOnConfig));
  const std::string text1 = scenario::scenario_to_config(s1);
  const auto s2 = scenario::scenario_from_config(util::Config::from_string(text1));
  const std::string text2 = scenario::scenario_to_config(s2);
  EXPECT_EQ(text1, text2);

  // Full precision survives the text.
  EXPECT_EQ(s2.jobs.tmpl.work.get(), 4800123.0);
  EXPECT_EQ(s2.apps[0].trace.rate_at(util::Seconds{0.0}), 2.123456789);
  EXPECT_EQ(s2.domains[0].cluster.classes[0].klass.core_mhz, 2000.123456789);
  // Keys from every subsystem.
  EXPECT_EQ(s2.engine_threads, 2);
  EXPECT_EQ(s2.jobs.tmpl.importance, 2.0);
  EXPECT_EQ(s2.controller.latencies.start_job.get(), 99.0);
  EXPECT_EQ(s2.router, "capacity-weighted");
  ASSERT_EQ(s2.domains.size(), 3u);
  EXPECT_EQ(s2.domains[0].name, "east");
  EXPECT_EQ(s2.domains[0].cluster.classes[0].count, 2);
  EXPECT_EQ(s2.domains[1].power_cap_w, 2500.0);
  EXPECT_EQ(s2.domains[2].first_cycle_at_s, 150.0);
  EXPECT_TRUE(s2.migration.enabled);
  ASSERT_EQ(s2.migration.links.size(), 2u);
  EXPECT_TRUE(s2.power.enabled);
  ASSERT_EQ(s2.faults.events.size(), 3u);
  EXPECT_EQ(s2.faults.events[1].severity, 0.5);
  EXPECT_EQ(s2.obs.audit, "ring");
  ASSERT_EQ(s2.slos.size(), 2u);

  scenario::ExperimentOptions opt;
  opt.validate_invariants = true;
  const auto r1 = scenario::run_federated_experiment(s1, opt);
  const auto r2 = scenario::run_federated_experiment(s2, opt);
  EXPECT_GT(r1.summary.jobs_completed, 0);
  EXPECT_EQ(r1.summary.invariant_violations, 0);
  EXPECT_EQ(scenario::digest(r1), scenario::digest(r2));
}

TEST(NoisyMonitoring, EqualizationSurvivesMeasurementNoise) {
  // The controller sees λ through a noisy monitor + EWMA; equalization
  // quality degrades gracefully rather than collapsing.
  auto s = scenario::section3_scaled(0.12);
  s.jobs.count = 20;
  scenario::ExperimentOptions noisy;
  noisy.lambda_noise_cv = 0.3;
  noisy.validate_invariants = true;
  const auto r = scenario::run_experiment(s, noisy);
  EXPECT_EQ(r.summary.jobs_completed, 20);
  EXPECT_EQ(r.summary.invariant_violations, 0);
  EXPECT_LT(r.summary.equalization_gap.mean(), 0.25);
}

TEST(NoisyMonitoring, NoiseChangesTheTrajectoryDeterministically) {
  auto s = scenario::section3_scaled(0.12);
  s.jobs.count = 15;
  scenario::ExperimentOptions noisy;
  noisy.lambda_noise_cv = 0.5;
  const auto a = scenario::run_experiment(s, noisy);
  const auto b = scenario::run_experiment(s, noisy);
  // Same seed ⇒ identical even with noise (noise stream is seeded).
  EXPECT_DOUBLE_EQ(a.summary.tx_utility.mean(), b.summary.tx_utility.mean());
  // And the noisy run differs from the clean one.
  const auto clean = scenario::run_experiment(s, {});
  EXPECT_NE(a.summary.tx_utility.mean(), clean.summary.tx_utility.mean());
}
