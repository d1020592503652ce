// Generic scenario runner: define an experiment entirely in a key=value
// config file (or on the command line) and run it under any policy — no
// recompilation.
//
//   ./build/examples/run_scenario --config=examples/configs/section3.conf
//   ./build/examples/run_scenario --nodes=10 --jobs.count=100 --cycle_s=300
//   ./build/examples/run_scenario --config=base.conf --policy=static-partition
//
// Command-line keys override file keys. `--print_config` echoes the fully
// resolved scenario of any domain count (archivable: it reloads to an
// equal scenario and prints again byte for byte). Runs take one-domain
// scenarios.

#include <fstream>
#include <iostream>
#include <sstream>

#include "scenario/config_loader.hpp"
#include "scenario/experiment.hpp"
#include "scenario/report.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;
  try {
    util::Config args = util::Config::from_args(argc, argv);

    util::Config merged;
    if (auto path = args.raw("config")) {
      std::ifstream in(*path);
      if (!in) {
        std::cerr << "cannot open config file: " << *path << "\n";
        return 1;
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      merged = util::Config::from_string(buffer.str());
    }
    // Runner-level keys are not scenario keys: strip before building.
    const std::string policy_name = args.get_string("policy", "utility-driven");
    const bool print_config = args.get_bool("print_config", false);
    const std::string out_csv = args.get_string("out_csv", "");
    util::Config scenario_overrides;
    for (const auto& key : args.keys()) {
      if (key == "config" || key == "policy" || key == "print_config" || key == "out_csv") {
        continue;
      }
      scenario_overrides.set(key, *args.raw(key));
    }
    merged.merge(scenario_overrides);

    const scenario::Scenario s = scenario::scenario_from_config(merged);
    if (print_config) {
      std::cout << scenario::scenario_to_config(s);
      return 0;
    }

    scenario::ExperimentOptions options;
    options.policy = scenario::policy_from_string(policy_name);

    std::cout << "Running scenario '" << s.name << "' (" << s.domains[0].cluster.nodes << " nodes, "
              << s.jobs.count << " jobs, " << s.apps.size() << " app(s)) under "
              << scenario::to_string(options.policy) << "\n\n";
    const auto result = scenario::run_experiment(s, options);
    scenario::print_summary(std::cout, result.summary);

    if (!out_csv.empty()) {
      if (result.series.save_csv(out_csv)) {
        std::cout << "\nseries written to " << out_csv << "\n";
      } else {
        std::cerr << "\nWARNING: failed to write " << out_csv << "\n";
        return 1;
      }
    }
    return 0;
  } catch (const util::ConfigError& e) {
    std::cerr << "config error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
