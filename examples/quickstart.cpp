// Quickstart: collocate one transactional app and a stream of batch jobs
// on a small cluster, let the utility-driven controller manage placement,
// and print what happened.
//
// Build & run:   ./build/examples/quickstart
// All parameters are overridable: ./build/examples/quickstart --nodes=8 --jobs=60

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
    std::cerr << "usage: quickstart [--nodes=N] [--jobs=N] [--seed=N] [--policy=NAME]\n"
              << e.what() << "\n";
    return 1;
  }

  // A 5-node cluster: each node has 4 × 3 GHz processors and 4 GB memory.
  scenario::Scenario s = scenario::section3_scaled(0.2);
  s.name = "quickstart";
  s.domains[0].cluster.nodes = static_cast<int>(cfg.get_int("nodes", s.domains[0].cluster.nodes));
  s.jobs.count = cfg.get_int("jobs", 40);
  s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));

  scenario::ExperimentOptions options;
  options.policy = scenario::policy_from_string(cfg.get_string("policy", "utility-driven"));
  options.validate_invariants = true;

  std::cout << "Running '" << s.name << "' on " << s.domains[0].cluster.nodes << " nodes with "
            << s.jobs.count << " jobs under policy " << scenario::to_string(options.policy)
            << "...\n\n";

  const scenario::ExperimentResult result = scenario::run_experiment(s, options);

  scenario::print_summary(std::cout, result.summary);

  std::cout << "\nUtility over time (Figure-1 style):\n";
  scenario::print_series_csv(std::cout, result.series,
                             {"tx_utility", "lr_hyp_utility", "u_star"}, /*every_nth=*/8);

  std::cout << "\nCPU allocation over time (Figure-2 style, MHz):\n";
  scenario::print_series_csv(
      std::cout, result.series,
      {"tx_alloc_mhz", "tx_demand_mhz", "lr_alloc_mhz", "lr_demand_mhz"}, /*every_nth=*/8);
  return 0;
}
