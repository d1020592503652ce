// Reproduces Figure 2 of Carrera et al., HPDC'08: CPU power (MHz)
// allocated to each workload over time, together with each workload's
// *demand* — the CPU that would give it maximum utility.
//
// Headline claim checked here: the controller makes an *uneven
// distribution of CPU capacity* that results in an *even level of
// utility* across the workloads.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace heteroplace;
  const auto cfg = bench::parse_args(
      argc, argv, "fig2_allocation [--scale=F] [--seed=N] [--out=DIR] [--every=N]");

  const double scale = cfg.get_double("scale", 1.0);
  scenario::Scenario s = scale >= 1.0 ? scenario::section3_scenario()
                                      : scenario::section3_scaled(scale);
  s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  scenario::ExperimentOptions options;
  options.policy = scenario::PolicyKind::kUtilityDriven;

  const scenario::ClusterSpec& cluster = s.domains[0].cluster;
  std::cout << "=== Figure 2: CPU allocated vs demand (" << s.name << ", " << cluster.nodes
            << " nodes x " << cluster.cpu_per_node_mhz << " MHz) ===\n";
  const auto result = scenario::run_experiment(s, options);

  const int every = static_cast<int>(cfg.get_int("every", 10));
  scenario::print_series_csv(
      std::cout, result.series,
      {"tx_alloc_mhz", "tx_demand_mhz", "lr_alloc_mhz", "lr_demand_mhz"}, every);
  std::cout << "\n";
  scenario::print_summary(std::cout, result.summary);

  // ---- shape checks ---------------------------------------------------------
  const auto* tx_alloc = result.series.find("tx_alloc_mhz");
  const auto* tx_demand = result.series.find("tx_demand_mhz");
  const auto* lr_alloc = result.series.find("lr_alloc_mhz");
  const auto* lr_demand = result.series.find("lr_demand_mhz");
  const auto* gap = result.series.find("utility_gap");
  const double t_end = result.summary.sim_end_time_s;
  const double capacity = cluster.nodes * cluster.cpu_per_node_mhz;
  const double arrivals_end =
      static_cast<double>(s.jobs.count) * s.jobs.mean_interarrival_s;

  std::cout << "\nPaper-shape checks:\n";
  bool all_ok = true;

  // (1) Early: transactional allocation ≈ its demand (no contention).
  const double cyc = s.controller.cycle_s;
  all_ok &= bench::check(
      "early transactional allocation ~ demand",
      tx_alloc->mean_over(cyc, 6 * cyc) > 0.7 * tx_demand->mean_over(cyc, 6 * cyc));

  // (2) Long-running demand grows past cluster capacity (crowding), while
  //     its satisfied allocation is capped by capacity and memory.
  const double lr_peak_demand = lr_demand->summary().max();
  all_ok &= bench::check("long-running demand exceeds cluster capacity at peak",
                         lr_peak_demand > capacity);

  // (3) Mid-run: transactional allocation falls below its demand (CPU is
  //     being shifted to jobs)...
  const double mid0 = 0.5 * arrivals_end;
  const double mid1 = 0.9 * arrivals_end;
  const double tx_mid_alloc = tx_alloc->mean_over(mid0, mid1);
  const double tx_mid_demand = tx_demand->mean_over(mid0, mid1);
  all_ok &= bench::check("mid-run transactional allocation below demand",
                         tx_mid_alloc < 0.9 * tx_mid_demand);

  // (4) ...while the CPU split is uneven and utility stays even.
  const double lr_mid_alloc = lr_alloc->mean_over(mid0, mid1);
  const double split_ratio =
      std::fabs(tx_mid_alloc - lr_mid_alloc) / std::max(tx_mid_alloc, lr_mid_alloc);
  const double mid_gap = gap != nullptr ? gap->mean_over(mid0, mid1) : 1.0;
  all_ok &= bench::check("uneven CPU split (>25% difference between workloads)",
                         split_ratio > 0.25);
  all_ok &= bench::check("even utility (mean |u_tx - u_lr| < 0.1 mid-run)", mid_gap < 0.1);

  // (5) Recovery: transactional allocation returns toward demand.
  const double tx_late = tx_alloc->value_at(t_end);
  all_ok &= bench::check("transactional allocation recovers to ~demand at the end",
                         tx_late > 0.9 * tx_demand->value_at(t_end));

  bench::save_series(result, bench::output_dir(cfg) + "/fig2_allocation.csv");
  return all_ok ? 0 : 1;
}
