#pragma once

// Config-driven scenario construction: build a full Scenario from
// key=value configuration (file or command line), so experiments can be
// defined and swept without recompiling. One schema serves every domain
// count; a single-cluster experiment is `domains = 1`, the default.
// Unspecified keys keep the paper's Section-3 values, every subsystem
// is off by default, and unknown keys raise util::ConfigError so typos
// fail loudly.
//
// Plain keys map one-to-one onto Scenario fields: `name` (default
// "custom") and those bind_scalar_keys in config_loader.cpp lists —
// seed, horizon_s, sample_interval_s, engine.threads, router, cycle_s,
// latency.*, solver.*, jobs.* (incl. jobs.tail_* and jobs.importance),
// migration.* (MigrationSpec, incl. the retry/queue keys), power.*
// (PowerSpec), fault.* (FaultSpec rates and seeds) and obs.* (ObsSpec).
// Keys with structure:
//
//   nodes, cpu_per_node_mhz, mem_per_node_mb — the global scalar pool
//   classes + class.<name>.{arch,cores,core_mhz,mem_mb,speed_factor,
//     accel,count}            — machine-class pools (instead of the above)
//   domains                    — controller domains (default 1), which
//                                 split the global pool evenly
//   domain.<i>.{name,nodes,cpu_per_node_mhz,mem_per_node_mb,
//     first_cycle_at_s,power_cap_w}, domain.<i>.class.<name>.count
//                              — per-domain overrides (name default dc<i>;
//                                 phase -1 = auto-stagger; cap default
//                                 power.cap_w)
//   apps + app.<i>.{name,lambda,rt_goal_s,service_demand_mhz_s,importance,
//     instance_memory_mb,min_instances,max_instances,utility_cap,
//     max_utilization,throughput_exponent}
//   jobs.constraint.*, app.<i>.constraint.* — {arch,accel,min_core_mhz}
//   bandwidth.<i>.<j>, link_latency.<i>.<j> — directed link overrides
//                                 (MB/s, s; bandwidth in p2p mode only)
//   uplink_bandwidth.<i>       — shared uplink capacity (uplink mode only)
//   migration.default_bandwidth_mbps — deprecated alias of
//                                 migration.default_bandwidth_mb_per_s
//   fault.events + fault.event.<i>.{kind,domain|from,node,to,at_s,
//     duration_s,severity}    — explicit faults; link faults need
//                                 migration, link faults and blackouts
//                                 need domains >= 2
//   obs.trace_path, obs.trace_engine, obs.trace_ring_capacity,
//   obs.audit_path, obs.audit_ring_capacity — only with that mode on
//   slos + slo.<name>.{target,long_window_s,short_window_s,burn_threshold}
//                              — burn-rate alerts; <name> is a tx app or
//                                 the literal "jobs"

#include <string>

#include "scenario/scenario.hpp"
#include "util/config.hpp"

namespace heteroplace::scenario {

/// Build a scenario from configuration. Throws util::ConfigError on
/// malformed values or unknown keys.
[[nodiscard]] Scenario scenario_from_config(const util::Config& cfg);

/// The name perfbench/hpbench.cpp uses for scenario_from_config. That
/// driver is frozen with the repo benchmark; no other code may call this.
[[nodiscard]] inline Scenario federated_scenario_from_config(const util::Config& cfg) {
  return scenario_from_config(cfg);
}

/// Render a scenario as config text: every key the loader reads, doubles
/// at max_digits10, so the text reloads to an equal scenario and renders
/// again byte for byte. Weight events and time-varying demand traces
/// have no keys: they are not rendered, and `lambda` is the rate at t=0.
[[nodiscard]] std::string scenario_to_config(const Scenario& scenario);

}  // namespace heteroplace::scenario
