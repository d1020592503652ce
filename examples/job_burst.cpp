// Job burst + transactional demand spike: exercises the control
// mechanisms the paper leverages — suspension, resumption, migration and
// dynamic web-instance churn — in one run.
//
// Timeline:
//   phase 1 (0..8000 s)      low transactional load; a burst of batch
//                            jobs fills every memory slot;
//   phase 2 (8000..16000 s)  the transactional rate quadruples: the
//                            controller grows the instance cluster,
//                            evicting (suspending/migrating) the least
//                            urgent jobs to reclaim memory;
//   phase 3 (16000 s..)      the rate drops back: instances retire and
//                            suspended jobs resume.
//
// Run:  ./build/examples/job_burst

#include <iostream>

#include "scenario/experiment.hpp"
#include "scenario/report.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;
  util::Config cfg;
  try {
    cfg = util::Config::from_args(argc, argv);
  } catch (const util::ConfigError& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  scenario::Scenario s;
  s.name = "job-burst";
  s.domains[0].cluster.nodes = static_cast<int>(cfg.get_int("nodes", 6));
  s.domains[0].cluster.cpu_per_node_mhz = 12000.0;
  s.domains[0].cluster.mem_per_node_mb = 4096.0;

  // Burst of jobs right at the start: 30 jobs in ~1500 s.
  s.jobs.count = cfg.get_int("jobs", 30);
  s.jobs.mean_interarrival_s = 50.0;
  s.jobs.tmpl.work = util::MhzSeconds{2.4e7};  // 8000 s at full speed
  s.jobs.tmpl.max_speed = util::CpuMhz{3000.0};
  s.jobs.tmpl.memory = util::MemMb{1300.0};
  s.jobs.tmpl.goal_stretch = 2.5;

  // Transactional app with a step-function demand trace.
  scenario::TxAppScenario web;
  web.spec.id = util::AppId{0};
  web.spec.name = "web";
  web.spec.rt_goal = util::Seconds{3.0};
  web.spec.service_demand = 5000.0;
  web.spec.max_utilization = 0.9;
  web.spec.throughput_exponent = 0.5;
  web.spec.utility_cap = 0.9;
  web.spec.instance_memory = util::MemMb{1024.0};
  web.spec.min_instances = 1;
  web.spec.max_instances = s.domains[0].cluster.nodes;
  web.spec.max_cpu_per_instance = util::CpuMhz{12000.0};
  web.trace.add(util::Seconds{0.0}, 1.5);      // light
  web.trace.add(util::Seconds{8000.0}, 6.0);   // spike: 4×
  web.trace.add(util::Seconds{16000.0}, 1.5);  // back to light
  s.apps.push_back(std::move(web));

  s.controller.cycle_s = 300.0;  // finer cycle to see the churn
  s.sample_interval_s = 300.0;
  s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 3));

  scenario::ExperimentOptions options;
  options.validate_invariants = true;

  const auto result = scenario::run_experiment(s, options);
  scenario::print_summary(std::cout, result.summary);

  std::cout << "\nChurn timeline (per-cycle action counts):\n";
  scenario::print_series_csv(
      std::cout, result.series,
      {"suspends", "migrations", "instance_starts", "jobs_running", "jobs_suspended",
       "tx_alloc_mhz"},
      /*every_nth=*/4);

  const long disruptive = result.summary.actions.total_disruptive();
  std::cout << "\n"
            << (disruptive > 0
                    ? "Suspension/resume/migration were exercised by the demand spike."
                    : "WARNING: no disruptive actions occurred — spike too small?")
            << " (suspends+resumes+migrations = " << disruptive << ")\n";
  return 0;
}
