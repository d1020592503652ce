// Reproduces Figure 1 of Carrera et al., HPDC'08: actual utility of the
// transactional workload and average hypothetical utility of the
// long-running workload over the Section-3 experiment.
//
// The paper's qualitative claims, each checked against the run:
//   (1) initially the transactional app gets all the CPU it can consume
//       and sits at its maximum utility;
//   (2) as jobs crowd the system, the long-running hypothetical utility
//       falls; once it crosses below the transactional utility the
//       controller shifts CPU until the two utilities equalize;
//   (3) when submissions stop, CPU flows back and transactional utility
//       recovers toward its maximum.

#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;
  const auto cfg = bench::parse_args(
      argc, argv, "fig1_utility [--scale=F] [--seed=N] [--out=DIR] [--every=N]");

  const double scale = cfg.get_double("scale", 1.0);
  scenario::Scenario s = scale >= 1.0 ? scenario::section3_scenario()
                                      : scenario::section3_scaled(scale);
  s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  scenario::ExperimentOptions options;
  options.policy = scenario::PolicyKind::kUtilityDriven;

  std::cout << "=== Figure 1: utility over time (" << s.name << ", " << s.domains[0].cluster.nodes
            << " nodes, " << s.jobs.count << " jobs, cycle " << s.controller.cycle_s
            << " s) ===\n";
  const auto result = scenario::run_experiment(s, options);

  const int every = static_cast<int>(cfg.get_int("every", 10));
  scenario::print_series_csv(std::cout, result.series,
                             {"tx_utility", "lr_hyp_utility", "u_star", "active_jobs"}, every);
  std::cout << "\n";
  scenario::print_summary(std::cout, result.summary);

  // ---- shape checks ---------------------------------------------------------
  const auto* tx = result.series.find("tx_utility");
  const auto* lr = result.series.find("lr_hyp_utility");
  const auto* active = result.series.find("active_jobs");
  const double t_end = result.summary.sim_end_time_s;
  const double arrivals_end =
      static_cast<double>(s.jobs.count) * s.jobs.mean_interarrival_s;

  std::cout << "\nPaper-shape checks:\n";
  bool all_ok = true;
  if (tx != nullptr && lr != nullptr && active != nullptr) {
    // (1) Early phase: transactional utility at/near its cap.
    const double u_cap = s.apps[0].spec.utility_cap;
    const double tx_early = tx->mean_over(s.controller.cycle_s, 6 * s.controller.cycle_s);
    all_ok &= bench::check("early transactional utility near its maximum", tx_early > 0.8 * u_cap);

    // (2) Crowded phase: utilities equalize.
    all_ok &= bench::check("equalization gap small in contended phase",
                           result.summary.equalization_gap.mean() < 0.2);

    // (2b) lr utility decreases while the system crowds.
    const double lr_early = lr->mean_over(0.0, 0.1 * arrivals_end);
    const double lr_mid = lr->mean_over(0.6 * arrivals_end, 0.9 * arrivals_end);
    all_ok &= bench::check("long-running utility decreases as system crowds",
                           lr_mid < lr_early);

    // (3) Recovery: after submissions end, transactional utility rises again.
    const double tx_mid = tx->mean_over(0.6 * arrivals_end, 0.9 * arrivals_end);
    const double tx_late = tx->mean_over(std::max(arrivals_end, 0.9 * t_end), t_end);
    all_ok &= bench::check("transactional utility recovers after submissions stop",
                           tx_late > tx_mid);
  }
  all_ok &= bench::check("all submitted jobs completed",
                         result.summary.jobs_completed == result.summary.jobs_submitted);

  bench::save_series(result, bench::output_dir(cfg) + "/fig1_utility.csv");
  return all_ok ? 0 : 1;
}
