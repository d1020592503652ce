// Golden result digests for every shape the scenario runners wire.
//
// run_experiment is a 1-domain adaptor over run_federated_experiment, so
// each thing the single-world API exposes — power, faults, machine
// classes, the baseline policies, noisy monitoring, run-to-completion and
// the obs stack — gets one pinned single-world scenario here, next to
// the scalar and classed federated shapes the hetero_datacenter and
// chaos_datacenter CI smokes exercise. Every value was captured from the
// two-runner implementation that preceded the adaptor; a mismatch means
// the runner changed simulated behaviour — a regression, not a re-pin.
// Each pin is checked at engine.threads 1 and 4.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "scenario/class_factory.hpp"
#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/result_digest.hpp"

using namespace heteroplace;

namespace {

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

scenario::Scenario base_single() {
  auto s = scenario::section3_scaled(0.15);  // 4 nodes, 120 jobs
  s.seed = 7;
  s.horizon_s = 30000.0;
  return s;
}

cluster::MachineClass make_class(const std::string& name, const std::string& arch, int cores,
                                 double core_mhz, double mem_mb, double speed_factor = 1.0) {
  cluster::MachineClass c;
  c.name = name;
  c.arch = arch;
  c.cores = cores;
  c.core_mhz = core_mhz;
  c.mem_mb = mem_mb;
  c.speed_factor = speed_factor;
  return c;
}

using SingleSetup = void (*)(scenario::Scenario&, scenario::ExperimentOptions&);

struct SinglePin {
  const char* name;
  SingleSetup setup;
  std::uint64_t digest;
};

constexpr std::uint64_t kBaseDigest = 0xf7a18f771d2b7326ULL;

const SinglePin kSinglePins[] = {
    {"base", [](scenario::Scenario&, scenario::ExperimentOptions&) {}, kBaseDigest},
    {"idle-park power",
     [](scenario::Scenario& s, scenario::ExperimentOptions&) {
       // A light stream, so nodes really go idle and park.
       s.jobs.count = 30;
       s.power.enabled = true;
       s.power.policy = "idle-park";
       s.power.idle_timeout_s = 1200.0;
     },
     0x08d228d1d750fd09ULL},
    {"node-crash + stochastic faults",
     [](scenario::Scenario& s, scenario::ExperimentOptions&) {
       s.faults.enabled = true;
       s.faults.checkpoint_interval_s = 600.0;
       s.faults.node_mttf_s = 20000.0;
       s.faults.node_mttr_s = 2000.0;
       s.faults.events.push_back({"node-crash", 0, 1, 0, 8000.0, 3000.0, 1.0});
     },
     0xbb8473f4c0ce81fbULL},
    {"explicit machine classes",
     [](scenario::Scenario& s, scenario::ExperimentOptions&) {
       s.domains[0].cluster.classes = {{make_class("x86", "x86_64", 4, 3000.0, 4096.0), 3},
                            {make_class("arm", "arm64", 8, 2000.0, 6144.0, 0.9), 2}};
       scenario::validate_class_pools(s.domains[0].cluster);
       s.apps[0].spec.max_instances = s.domains[0].cluster.total_nodes();
       s.apps[0].spec.max_cpu_per_instance = util::CpuMhz{s.domains[0].cluster.max_node_cpu_mhz()};
       s.apps[0].spec.constraint.arch = "x86_64";
     },
     0x7bb393e9cbe6526fULL},
    {"static-partition",
     [](scenario::Scenario&, scenario::ExperimentOptions& opt) {
       opt.policy = scenario::PolicyKind::kStaticPartition;
     },
     0x7c7f56b35441a92fULL},
    {"proportional-equal",
     [](scenario::Scenario&, scenario::ExperimentOptions& opt) {
       opt.policy = scenario::PolicyKind::kProportionalEqual;
     },
     0x97c124528c90b7b8ULL},
    {"proportional-demand",
     [](scenario::Scenario&, scenario::ExperimentOptions& opt) {
       opt.policy = scenario::PolicyKind::kProportionalDemand;
     },
     0x0f4a178e84b364ceULL},
    {"lambda noise",
     [](scenario::Scenario&, scenario::ExperimentOptions& opt) { opt.lambda_noise_cv = 0.3; },
     0x6e63d259c64fa9efULL},
    {"run to completion",
     [](scenario::Scenario& s, scenario::ExperimentOptions&) {
       s.jobs.count = 40;
       s.horizon_s = 0.0;
     },
     0x6586e4bb9f916ff6ULL},
    // Everything digest-excluded switched on: the digest must equal the
    // obs-off base run's.
    {"obs fully on",
     [](scenario::Scenario& s, scenario::ExperimentOptions&) {
       s.obs.trace = "ring";
       s.obs.trace_path = temp_path("golden_trace.json");
       s.obs.metrics_path = temp_path("golden_metrics.prom");
       s.obs.metrics_json_path = temp_path("golden_metrics.json");
       s.obs.profile = true;
       s.obs.audit = "ring";
       s.obs.audit_path = temp_path("golden_audit.json");
       s.obs.sla_report_path = temp_path("golden_sla.json");
       s.obs.sla_report_csv_path = temp_path("golden_sla.csv");
       s.slos.push_back({"jobs", 0.5, 7200.0, 1200.0, 1.0});
     },
     kBaseDigest},
};

/// The federated shape of the chaos_datacenter smoke, shortened: three
/// domains, drain migration over faulty links, stochastic crashes, a
/// blacked-out domain and two SLOs.
scenario::Scenario chaos_shape() {
  scenario::Scenario base = scenario::section3_scaled(0.4);  // 10 nodes
  base.name = "chaos-datacenter";
  base.jobs.count = 60;
  base.jobs.mean_interarrival_s = 1500.0;
  base.seed = 11;
  scenario::Scenario fs = scenario::federate(base, 3);
  fs.domains[0].name = "dc-primary";
  fs.domains[1].name = "dc-east";
  fs.domains[2].name = "dc-west";
  fs.horizon_s = 120000.0;
  fs.migration.enabled = true;
  fs.migration.policy = "drain";
  fs.migration.check_interval_s = 120.0;
  fs.migration.max_moves_per_tick = 6;
  fs.migration.links.push_back({0, 1, 120.0, 1.0});
  fs.migration.links.push_back({0, 2, 80.0, 6.0});
  fs.migration.max_transfer_retries = 6;
  fs.migration.rescore_queued_transfers = true;
  fs.weight_events.push_back({0, 40000.0, 0.0});
  fs.weight_events.push_back({0, 70000.0, 1.0});
  fs.faults.enabled = true;
  fs.faults.checkpoint_interval_s = 1800.0;
  fs.faults.node_mttf_s = 86400.0;
  fs.faults.node_mttr_s = 3600.0;
  fs.faults.events.push_back({"link-down", 0, 0, 1, 40041.0, 400.0, 1.0});
  fs.faults.events.push_back({"link-down", 0, 0, 2, 40041.0, 700.0, 1.0});
  fs.faults.events.push_back({"blackout", 1, 0, 0, 90000.0, 7200.0, 1.0});
  fs.faults.events.push_back({"node-crash", 1, 0, 0, 90000.0, 7200.0, 1.0});
  fs.slos.push_back({"web", 0.95, 14400.0, 3600.0, 2.0});
  fs.slos.push_back({"jobs", 0.5, 86400.0, 14400.0, 1.5});
  return fs;
}

/// The hetero_datacenter pools (x86 / arm / gpu) federated over two
/// domains, with the transactional app pinned to x86_64 and power on.
scenario::Scenario hetero_shape() {
  scenario::Scenario base = scenario::section3_scaled(0.4);
  base.name = "hetero-datacenter";
  cluster::MachineClass gpu = make_class("gpu", "x86_64", 8, 3000.0, 16384.0);
  gpu.accel = {"gpu"};
  base.domains[0].cluster.classes = {{make_class("x86", "x86_64", 8, 2500.0, 8192.0), 10},
                          {make_class("arm", "arm64", 16, 2000.0, 12288.0, 0.9), 8},
                          {gpu, 4}};
  scenario::validate_class_pools(base.domains[0].cluster);
  base.apps[0].spec.max_instances = base.domains[0].cluster.total_nodes();
  base.apps[0].spec.max_cpu_per_instance = util::CpuMhz{base.domains[0].cluster.max_node_cpu_mhz()};
  base.apps[0].spec.constraint.arch = "x86_64";
  base.jobs.count = 80;
  base.jobs.mean_interarrival_s = 200.0;
  base.jobs.tmpl.memory = util::MemMb{2048.0};
  base.jobs.tmpl.constraint.min_core_mhz = 2500.0;
  base.seed = 42;
  base.horizon_s = 30000.0;
  base.power.enabled = true;
  base.power.idle_timeout_s = 1200.0;
  return scenario::federate(base, 2);
}

/// Per-domain class_<name>_placeable_mhz series are recorded only since
/// the federated runner took over machine-class sampling; drop them so
/// the classed federated pins compare just the behaviour they pinned.
std::uint64_t digest_without_class_series(scenario::FederatedResult res) {
  for (scenario::DomainResult& d : res.domains) {
    util::TimeSeriesSet kept;
    for (const std::string& name : d.result.series.names()) {
      if (name.starts_with("class_") && name.ends_with("_placeable_mhz")) continue;
      kept.series(name) = *d.result.series.find(name);
    }
    d.result.series = std::move(kept);
  }
  return scenario::digest(res);
}

constexpr std::uint64_t kChaosShapeDigest = 0xdd8c57f7b9a74bc5ULL;
constexpr std::uint64_t kHeteroShapeDigest = 0x469e23d0a308d842ULL;

}  // namespace

TEST(GoldenDigest, SingleWorldPins) {
  for (const SinglePin& pin : kSinglePins) {
    for (int threads : {1, 4}) {
      scenario::Scenario s = base_single();
      scenario::ExperimentOptions opt;
      pin.setup(s, opt);
      s.engine_threads = threads;
      EXPECT_EQ(scenario::digest(scenario::run_experiment(s, opt)), pin.digest)
          << pin.name << ", threads=" << threads;
    }
  }
}

TEST(GoldenDigest, ChaosShapeFederatedPin) {
  for (int threads : {1, 4}) {
    scenario::Scenario fs = chaos_shape();
    fs.engine_threads = threads;
    scenario::ExperimentOptions opt;
    opt.validate_invariants = true;
    const auto res = scenario::run_federated_experiment(fs, opt);
    EXPECT_EQ(res.summary.invariant_violations, 0);
    EXPECT_EQ(scenario::digest(res), kChaosShapeDigest) << "threads=" << threads;
  }
}

TEST(GoldenDigest, HeteroShapeFederatedPin) {
  for (int threads : {1, 4}) {
    scenario::Scenario fs = hetero_shape();
    fs.engine_threads = threads;
    const auto res = scenario::run_federated_experiment(fs, scenario::ExperimentOptions{});
    EXPECT_GT(res.summary.jobs_completed, 0);
    EXPECT_EQ(digest_without_class_series(res), kHeteroShapeDigest) << "threads=" << threads;
  }
}
