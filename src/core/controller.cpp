#include "core/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/utility_policy.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace heteroplace::core {

void PlacementController::set_obs(const obs::ObsContext& ctx) {
  obs_ = ctx;
  if (obs_.metrics != nullptr) {
    cycles_metric_ = &obs_.metrics->counter("controller_cycles_total",
                                            "Control cycles evaluated", obs_.labels);
    missed_cycles_metric_ = &obs_.metrics->counter(
        "controller_missed_cycles_total", "Cycles skipped while offline (blackout)", obs_.labels);
  }
  policy_->set_obs(obs_);
  executor_.set_obs(obs_);
}

void PlacementController::start() {
  if (config_.cycle.get() <= 0.0) {
    throw std::invalid_argument("PlacementController: cycle must be positive");
  }
  if (config_.first_cycle_at.get() < 0.0) {
    throw std::invalid_argument("PlacementController: first_cycle_at must be nonnegative");
  }
  const util::Seconds first = std::max(config_.first_cycle_at, engine_.now());
  next_cycle_at_ = first;
  engine_.schedule_at(first, sim::EventPriority::kController, config_.shard, [this] {
    run_cycle();
    schedule_next();
  });
}

void PlacementController::schedule_next() {
  next_cycle_at_ = engine_.now() + config_.cycle;
  engine_.schedule_in(config_.cycle, sim::EventPriority::kController, config_.shard, [this] {
    run_cycle();
    schedule_next();
  });
}

void PlacementController::run_cycle() {
  const util::Seconds now = engine_.now();

  // Blacked-out domains keep their schedule but evaluate nothing: the
  // control plane is down while the machines keep running.
  if (!online_) {
    ++missed_cycles_;
    if (missed_cycles_metric_ != nullptr) missed_cycles_metric_->inc();
    if (obs_.trace != nullptr) {
      obs_.trace->instant(obs_.pid, obs::Lane::kController, "cycle_skipped", now.get());
    }
    return;
  }

  const obs::ScopedTimer cycle_timer(obs_.profiler, obs::Phase::kControllerCycle);
  if (obs_.trace != nullptr) {
    obs_.trace->begin(obs_.pid, obs::Lane::kController, "cycle", now.get(),
                      {{"active_jobs", static_cast<double>(world_.active_jobs().size())}});
  }

  // Fold elapsed progress into every job before the policy reads state.
  for (workload::Job* job : world_.active_jobs()) job->advance_to(now);

  PolicyOutput out = policy_->decide(world_, now);
  executor_.apply(out.plan);
  ++cycles_;
  if (cycles_metric_ != nullptr) cycles_metric_->inc();
  if (obs_.trace != nullptr) {
    obs_.trace->end(obs_.pid, obs::Lane::kController, "cycle", now.get(),
                    {{"u_star", out.diag.u_star},
                     {"jobs_placed", static_cast<double>(out.diag.solver.jobs_placed)},
                     {"jobs_waiting", static_cast<double>(out.diag.solver.jobs_waiting)}});
  }

  // Post-apply snapshot for same-timestamp consumers (PowerManager runs
  // at kPower after this controller and would otherwise rebuild it).
  if (cache_enabled_) {
    cached_ = build_problem_skeleton(world_);
    cached_at_ = now;
    cache_valid_ = true;
  }

  if (observer_) {
    CycleReport report;
    report.t = now;
    report.diag = std::move(out.diag);
    report.actions = executor_.take_counts_delta();
    observer_(report);
  }
}

void PlacementController::set_online(bool online) {
  if (online == online_) return;
  online_ = online;
  if (!online_) {
    cache_valid_ = false;  // never share a pre-blackout snapshot
    return;
  }
  // Back online: the world changed arbitrarily while this controller was
  // blind, so run one resync cycle at the recovery timestamp (after the
  // fault event that triggered it).
  engine_.schedule_at(engine_.now(), sim::EventPriority::kController, config_.shard,
                      [this] { run_cycle(); });
}

}  // namespace heteroplace::core
