// Service differentiation: two transactional classes (gold and silver,
// different response-time goals and importance weights) sharing the
// cluster with a batch job stream.
//
// Demonstrates the paper's claim of "service differentiation based on
// high-level performance goals": under contention the equalizer holds the
// gold class at an importance-proportionally higher utility, without any
// per-node manual tuning.
//
// Run:  ./build/examples/service_differentiation [--gold_importance=F]

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

  scenario::Scenario s = scenario::service_differentiation_scenario();
  s.jobs.count = cfg.get_int("jobs", 300);
  s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  s.apps[0].spec.importance = cfg.get_double("gold_importance", 1.5);

  std::cout << "Service differentiation: gold (RT goal " << s.apps[0].spec.rt_goal
            << " s, importance " << s.apps[0].spec.importance << ") vs silver (RT goal "
            << s.apps[1].spec.rt_goal << " s, importance " << s.apps[1].spec.importance
            << ") + " << s.jobs.count << " batch jobs on " << s.domains[0].cluster.nodes
            << " nodes\n\n";

  const auto result = scenario::run_experiment(s, {});
  scenario::print_summary(std::cout, result.summary);

  const auto* gold = result.series.find("tx_utility_gold");
  const auto* silver = result.series.find("tx_utility_silver");
  const auto* gold_rt = result.series.find("tx_rt_gold");
  const auto* silver_rt = result.series.find("tx_rt_silver");
  if (gold != nullptr && silver != nullptr) {
    const double t_end = result.summary.sim_end_time_s;
    const double g = gold->mean_over(0.3 * t_end, 0.8 * t_end);
    const double v = silver->mean_over(0.3 * t_end, 0.8 * t_end);
    std::cout << "\nContended-phase means:\n";
    std::cout << "  gold   utility " << g << "   RT " << gold_rt->mean_over(0.3 * t_end, 0.8 * t_end)
              << " s (goal " << s.apps[0].spec.rt_goal << " s)\n";
    std::cout << "  silver utility " << v << "   RT "
              << silver_rt->mean_over(0.3 * t_end, 0.8 * t_end) << " s (goal "
              << s.apps[1].spec.rt_goal << " s)\n";
    std::cout << (g >= v ? "\nGold sustains the higher utility under contention, as configured.\n"
                         : "\nWARNING: gold did not outperform silver.\n");
  }

  std::cout << "\nUtility over time:\n";
  scenario::print_series_csv(std::cout, result.series,
                             {"tx_utility_gold", "tx_utility_silver", "lr_hyp_utility"},
                             /*every_nth=*/20);
  return 0;
}
