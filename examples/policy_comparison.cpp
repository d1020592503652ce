// Side-by-side policy comparison on the same workload: the paper's
// utility-driven controller vs three utility-blind baselines. Prints one
// summary row per policy — the utility-driven controller is the only one
// that keeps the worst-off workload class healthy.
//
// Run:  ./build/examples/policy_comparison [--scale=F]

#include <algorithm>
#include <iostream>
#include <vector>

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

  const double scale = cfg.get_double("scale", 0.2);
  scenario::Scenario s = scenario::section3_scaled(scale);
  s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  const std::vector<scenario::PolicyKind> policies = {
      scenario::PolicyKind::kUtilityDriven, scenario::PolicyKind::kStaticPartition,
      scenario::PolicyKind::kProportionalEqual, scenario::PolicyKind::kProportionalDemand};

  std::cout << "Policy comparison on " << s.name << " (" << s.domains[0].cluster.nodes << " nodes, "
            << s.jobs.count << " jobs)\n\n";

  for (const auto policy : policies) {
    scenario::ExperimentOptions options;
    options.policy = policy;
    options.max_sim_time_s = 2.0e6;
    const auto result = scenario::run_experiment(s, options);
    scenario::print_summary(std::cout, result.summary);
    const double min_class =
        std::min(result.summary.tx_utility.mean(), result.summary.job_utility.mean());
    std::cout << "  min-class utility:   " << min_class << "\n\n";
  }
  std::cout << "The min-class utility row is the paper's point: only utility-driven\n"
               "placement keeps both heterogeneous classes satisfied simultaneously.\n";
  return 0;
}
