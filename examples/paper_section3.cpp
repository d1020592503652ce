// The paper's Section-3 experiment at full scale: 25 nodes × 4 × 3 GHz,
// 800 identical batch jobs (exponential inter-arrival, mean 260 s)
// collocated with a constant transactional workload, 600 s control cycle.
//
// Writes the complete Figure-1/Figure-2 series to CSV and prints the
// run summary plus a phase narrative.
//
// (Until PR 10 this file was named heterogeneous_datacenter.cpp — a
// legacy of the paper's "heterogeneous workloads" phrasing. The cluster
// here is homogeneous hardware; for machine-class heterogeneity see
// examples/hetero_datacenter.cpp.)
//
// Run:  ./build/paper_section3 [--out=DIR] [--seed=N]
//       [--policy=utility-driven|static-partition|proportional-equal|...]

#include <filesystem>
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

  scenario::Scenario s = scenario::section3_scenario();
  s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  scenario::ExperimentOptions options;
  options.policy = scenario::policy_from_string(cfg.get_string("policy", "utility-driven"));

  std::cout << "Heterogeneous datacenter (paper Section 3): " << s.domains[0].cluster.nodes
            << " nodes x " << s.domains[0].cluster.cpu_per_node_mhz / 1000.0 << " GHz total/node, "
            << s.jobs.count << " jobs, mean inter-arrival " << s.jobs.mean_interarrival_s
            << " s, control cycle " << s.controller.cycle_s << " s\n\n";

  const auto result = scenario::run_experiment(s, options);
  scenario::print_summary(std::cout, result.summary);

  // Phase narrative: where did the system transition?
  const auto* tx_u = result.series.find("tx_utility");
  const auto* lr_u = result.series.find("lr_hyp_utility");
  const auto* tx_a = result.series.find("tx_alloc_mhz");
  if (tx_u != nullptr && lr_u != nullptr && tx_a != nullptr) {
    const double t_end = result.summary.sim_end_time_s;
    std::cout << "\nPhase narrative:\n";
    std::cout << "  t=0..10%    tx utility " << tx_u->mean_over(0, 0.1 * t_end)
              << "  lr utility " << lr_u->mean_over(0, 0.1 * t_end)
              << "  (uncontended: transactional at its demand)\n";
    std::cout << "  t=40..70%   tx utility " << tx_u->mean_over(0.4 * t_end, 0.7 * t_end)
              << "  lr utility " << lr_u->mean_over(0.4 * t_end, 0.7 * t_end)
              << "  (crowded: utilities equalized)\n";
    std::cout << "  t=95..100%  tx utility " << tx_u->mean_over(0.95 * t_end, t_end)
              << "  lr utility " << lr_u->mean_over(0.95 * t_end, t_end)
              << "  (drained: CPU returned to transactional)\n";
  }

  const std::string dir = cfg.get_string("out", "example_out");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/paper_section3.csv";
  if (result.series.save_csv(path)) {
    std::cout << "\nFull time series written to " << path << "\n";
  }
  return 0;
}
