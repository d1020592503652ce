// Green datacenter: a diurnal workload on a cluster whose idle capacity
// is parked overnight.
//
// One transactional app follows a two-day day/night demand cycle and a
// stream of batch jobs arrives during working hours. The run executes
// twice: once "always-on" (power metering enabled, consolidation policy
// "none" — every node burns active power forever, placement identical to
// a power-disabled run) and once under the "idle-park" consolidation
// policy, which parks nodes that sit empty past an idle timeout and
// wakes them — paying the wake latency — when the morning load returns.
// The report compares the energy bills and the SLA outcomes side by
// side: the point of the subsystem is that the energy drops while the
// utility series barely move.
//
// Build & run:   ./build/green_datacenter
// Options:       --nodes=N --jobs=N --seed=N --horizon=S
//                --idle_timeout=S --wake_latency=S --cap=WATTS
//                --trace=PATH (Chrome trace-event JSON of the idle-park run;
//                open in Perfetto) --metrics=PATH (Prometheus text snapshot)

#include <iomanip>
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
    std::cerr << "usage: green_datacenter [--nodes=N] [--jobs=N] [--seed=N] [--horizon=S]"
                 " [--idle_timeout=S] [--wake_latency=S] [--cap=WATTS]"
                 " [--trace=PATH] [--metrics=PATH]\n"
              << e.what() << "\n";
    return 1;
  }

  scenario::Scenario s = scenario::section3_scaled(0.4);  // 10 nodes
  s.name = "green-datacenter";
  s.domains[0].cluster.nodes = static_cast<int>(cfg.get_int("nodes", s.domains[0].cluster.nodes));
  s.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 11));

  // Two days of diurnal transactional demand: quiet nights, busy days.
  constexpr double kDay = 86400.0;
  workload::DemandTrace diurnal;
  for (int day = 0; day < 2; ++day) {
    const double t0 = day * kDay;
    diurnal.add(util::Seconds{t0}, 1.5);             // 00:00 night
    diurnal.add(util::Seconds{t0 + 25200.0}, 10.0);  // 07:00 ramp
    diurnal.add(util::Seconds{t0 + 32400.0}, 16.0);  // 09:00 peak
    diurnal.add(util::Seconds{t0 + 61200.0}, 8.0);   // 17:00 taper
    diurnal.add(util::Seconds{t0 + 72000.0}, 1.5);   // 20:00 night
  }
  s.apps[0].trace = diurnal;

  // Batch jobs arrive through the first day's working hours and are
  // sized to clear before midnight, leaving the cluster idle overnight.
  s.jobs.count = cfg.get_int("jobs", 48);
  s.jobs.mean_interarrival_s = 700.0;
  s.jobs.tmpl.work = util::MhzSeconds{6.0e6};  // 2000 s at full speed
  s.horizon_s = cfg.get_double("horizon", 2.0 * kDay);

  s.power.enabled = true;
  s.power.idle_timeout_s = cfg.get_double("idle_timeout", 1800.0);
  s.power.wake_latency_s = cfg.get_double("wake_latency", 120.0);
  s.power.park_latency_s = 30.0;
  s.power.cap_w = cfg.get_double("cap", 0.0);
  s.power.min_active_nodes = 2;

  scenario::ExperimentOptions options;
  options.validate_invariants = true;

  std::cout << "Green datacenter: " << s.domains[0].cluster.nodes << " nodes, " << s.jobs.count
            << " daytime jobs, two-day diurnal web demand, horizon " << s.horizon_s
            << " s\n\n";

  // --- run 1: always-on baseline (metered, never parks) ----------------------
  scenario::Scenario always_on = s;
  always_on.power.policy = "none";
  const scenario::ExperimentResult base = scenario::run_experiment(always_on, options);

  // --- run 2: idle-park consolidation ----------------------------------------
  // Observability (opt-in) instruments only this run, so the trace shows
  // the park/wake transitions the example exists to demonstrate.
  s.power.policy = "idle-park";
  const std::string trace_path = cfg.get_string("trace", "");
  if (!trace_path.empty()) {
    s.obs.trace = "stream";
    s.obs.trace_path = trace_path;
  }
  s.obs.metrics_path = cfg.get_string("metrics", "");
  const scenario::ExperimentResult green = scenario::run_experiment(s, options);

  const double base_wh = base.series.find("energy_wh")->points().back().v;
  const double green_wh = green.series.find("energy_wh")->points().back().v;

  std::cout << "=== always-on baseline ===\n";
  scenario::print_summary(std::cout, base.summary);
  std::cout << "  energy:           " << std::fixed << std::setprecision(1) << base_wh / 1000.0
            << " kWh\n\n";

  std::cout << "=== idle-park ===\n";
  scenario::print_summary(std::cout, green.summary);
  std::cout << "  energy:           " << green_wh / 1000.0 << " kWh\n\n";

  std::cout << "Energy saved: " << std::fixed << std::setprecision(1)
            << (base_wh - green_wh) / 1000.0 << " kWh ("
            << 100.0 * (base_wh - green_wh) / base_wh << "% of " << base_wh / 1000.0
            << " kWh)\n";
  std::cout << "SLA delta:    tx utility " << std::setprecision(4)
            << base.summary.tx_utility.mean() << " -> " << green.summary.tx_utility.mean()
            << ", jobs completed " << base.summary.jobs_completed << " -> "
            << green.summary.jobs_completed << "\n";

  std::cout << "\nDraw and parked nodes over time (idle-park run):\n";
  scenario::print_series_csv(std::cout, green.series,
                             {"power_w", "power_parked_nodes", "tx_utility", "jobs_running"},
                             /*every_nth=*/8);
  if (!trace_path.empty()) {
    std::cout << "\nTrace written to " << trace_path << " (open in https://ui.perfetto.dev)\n";
  }
  if (!s.obs.metrics_path.empty()) {
    std::cout << "Metrics snapshot written to " << s.obs.metrics_path << "\n";
  }
  return 0;
}
