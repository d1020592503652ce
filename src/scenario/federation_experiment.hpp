#pragma once

// The experiment runner: a Scenario's N controller domains on one
// engine, one shared workload stream routed across them.
//
// run_federated_experiment is the only experiment runner: run_experiment
// is its 1-domain adaptor (see scenario/experiment.hpp), so every
// subsystem — policy, metrics, power, faults, migration, obs, SLA — is
// wired here once, including the runner-only construction of each
// domain's policy and power manager. Single-domain behaviour is pinned
// by the golden digests in tests/golden_digest_test.cpp.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/injector.hpp"
#include "migration/manager.hpp"
#include "obs/profile.hpp"
#include "scenario/experiment.hpp"
#include "scenario/scenario.hpp"

namespace heteroplace::scenario {

/// Throw util::ConfigError naming the offending key if the spec's
/// link_mode / selection strings are invalid. The config loader and the
/// runner both call this; CLI front-ends that fill the strings
/// from flags call it early for a clean usage-style failure instead of
/// an uncaught exception mid-run.
void validate_migration_modes(const MigrationSpec& spec);

/// Per-domain outcome: the same series + summary run_experiment returns
/// for a one-domain scenario, plus how many jobs the router sent here.
struct DomainResult {
  std::string name;
  ExperimentResult result;
  long jobs_routed{0};
};

/// Engine-level execution counters for one run. Diagnostic only — the
/// result digest (scenario/result_digest) deliberately excludes them,
/// because parallel_batches/batched_events legitimately differ between
/// engine.threads = 1 (always zero) and N > 1 while the simulation
/// output stays bit-identical.
struct EngineStats {
  std::uint64_t events_executed{0};
  std::uint64_t parallel_batches{0};
  std::uint64_t batched_events{0};
  /// Wall-clock dispatch attribution (obs.profile only; zeros otherwise).
  std::uint64_t serial_spine_ns{0};
  std::uint64_t batch_exec_ns{0};
  std::uint64_t merge_barrier_ns{0};
};

struct FederatedResult {
  std::vector<DomainResult> domains;
  /// Federation-aggregated samples (fed_* series: summed allocations,
  /// job counts; mig_* series when migration is enabled) on the shared
  /// sampling clock.
  util::TimeSeriesSet series;
  /// merge_summaries over the per-domain summaries.
  ExperimentSummary summary;
  /// End-of-run migration counters (all zero when migration is disabled).
  migration::MigrationStats migration;
  /// End-of-run fault counters, summed across domains (all zero when
  /// fault injection is disabled).
  faults::DomainFaultStats faults;
  /// Mean time to repair over completed repairs (0 without faults).
  double fault_mttr_s{0.0};
  /// Execution counters (excluded from the digest; see EngineStats).
  EngineStats engine;
  /// Wall-clock per-phase profile (obs.profile; empty otherwise). Like
  /// EngineStats this is machine-dependent and digest-excluded.
  obs::ProfileReport profile;
};

/// Run a scenario with any number of domains (>= 1). Deterministic for a
/// fixed (scenario, options) pair. options.policy selects every domain's
/// local policy.
[[nodiscard]] FederatedResult run_federated_experiment(const Scenario& scenario,
                                                       const ExperimentOptions& options = {});

}  // namespace heteroplace::scenario
