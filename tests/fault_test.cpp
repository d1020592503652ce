// Fault-injection subsystem tests: the FaultSchedule (window validation,
// per-target substream determinism, overlap coalescing), the
// FaultInjector against a live world (crash teardown + checkpoint
// revert + timed recovery, interval-checkpoint progress loss), the
// closed-form transfer retry/backoff timeline after a link kill
// (including failback after an exhausted retry budget), chaos
// determinism across reruns, the bit-identity pins that faults-disabled
// and enabled-with-an-empty-schedule runs reproduce the pre-fault
// output exactly (single-world and federated), and the fail-loud
// fault.* config surface.

#include "faults/injector.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/utility_policy.hpp"
#include "core/world.hpp"
#include "faults/fault_schedule.hpp"
#include "federation/federation.hpp"
#include "migration/manager.hpp"
#include "migration/policy.hpp"
#include "migration/transfer_model.hpp"
#include "scenario/config_loader.hpp"
#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "sim/engine.hpp"
#include "util/config.hpp"
#include "utility/utility_fn.hpp"

using namespace heteroplace;
using namespace heteroplace::util::literals;

namespace {

std::unique_ptr<core::UtilityDrivenPolicy> make_policy() {
  return std::make_unique<core::UtilityDrivenPolicy>(
      std::make_shared<utility::JobUtilityModel>(), std::make_shared<utility::TxUtilityModel>());
}

workload::JobSpec make_job(unsigned id, double submit = 0.0) {
  workload::JobSpec s;
  s.id = util::JobId{id};
  s.work = util::MhzSeconds{3.0e6};  // 1000 s at full speed
  s.max_speed = 3000_mhz;
  s.memory = 1300_mb;
  s.submit_time = util::Seconds{submit};
  s.completion_goal = util::Seconds{8000.0};
  return s;
}

void add_nodes(federation::Domain& d, int n) {
  d.world().cluster().add_nodes(n, cluster::Resources{12000_mhz, 4096_mb});
}

faults::FaultWindow node_window(std::size_t domain, std::size_t node, double start, double end) {
  faults::FaultWindow w;
  w.kind = faults::FaultKind::kNodeCrash;
  w.domain = domain;
  w.node = node;
  w.start_s = start;
  w.end_s = end;
  return w;
}

void expect_same_series(const util::TimeSeriesSet& a, const util::TimeSeriesSet& b,
                        const std::string& name) {
  const auto* sa = a.find(name);
  const auto* sb = b.find(name);
  ASSERT_NE(sa, nullptr) << name;
  ASSERT_NE(sb, nullptr) << name;
  ASSERT_EQ(sa->size(), sb->size()) << name;
  for (std::size_t i = 0; i < sa->size(); ++i) {
    EXPECT_DOUBLE_EQ(sa->points()[i].t, sb->points()[i].t) << name << " point " << i;
    EXPECT_DOUBLE_EQ(sa->points()[i].v, sb->points()[i].v) << name << " point " << i;
  }
}

}  // namespace

// --- FaultSchedule -----------------------------------------------------------

TEST(FaultSchedule, RejectsBadWindows) {
  faults::FaultSchedule s;
  EXPECT_THROW(s.add(node_window(0, 0, -1.0, 10.0)), std::invalid_argument);
  EXPECT_THROW(s.add(node_window(0, 0, 10.0, 10.0)), std::invalid_argument);
  EXPECT_THROW(s.add(node_window(0, 0, 10.0, 5.0)), std::invalid_argument);
  faults::FaultWindow w = node_window(0, 0, 1.0, 2.0);
  w.severity = 0.0;
  EXPECT_THROW(s.add(w), std::invalid_argument);
  w.severity = 1.5;
  EXPECT_THROW(s.add(w), std::invalid_argument);
  EXPECT_TRUE(s.empty());
  EXPECT_NO_THROW(s.add(node_window(0, 0, 1.0, 2.0)));
  EXPECT_EQ(s.size(), 1u);
}

TEST(FaultSchedule, CoalescesOverlappingSameTargetWindows) {
  faults::FaultSchedule s;
  s.add(node_window(0, 0, 100.0, 200.0));
  s.add(node_window(0, 0, 150.0, 300.0));  // overlaps the first
  s.add(node_window(0, 1, 120.0, 130.0));  // different target: untouched
  s.add(node_window(0, 0, 400.0, 450.0));  // disjoint: untouched

  const auto merged = s.finalized();
  ASSERT_EQ(merged.size(), 3u);
  // Sorted by start; the overlapping pair coalesced to the union extent
  // (the injector must never crash a node that is already down).
  EXPECT_DOUBLE_EQ(merged[0].start_s, 100.0);
  EXPECT_DOUBLE_EQ(merged[0].end_s, 300.0);
  EXPECT_EQ(merged[0].node, 0u);
  EXPECT_DOUBLE_EQ(merged[1].start_s, 120.0);
  EXPECT_EQ(merged[1].node, 1u);
  EXPECT_DOUBLE_EQ(merged[2].start_s, 400.0);
  EXPECT_DOUBLE_EQ(merged[2].end_s, 450.0);
}

TEST(FaultSchedule, GenerateIsDeterministicAndPerTargetStable) {
  faults::FaultRates rates;
  rates.node_mttf_s = 5000.0;
  rates.node_mttr_s = 500.0;

  faults::FaultSchedule a;
  a.generate(rates, 42, 100000.0, {3});
  faults::FaultSchedule b;
  b.generate(rates, 42, 100000.0, {3});
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.raw()[i].start_s, b.raw()[i].start_s);
    EXPECT_DOUBLE_EQ(a.raw()[i].end_s, b.raw()[i].end_s);
    EXPECT_EQ(a.raw()[i].node, b.raw()[i].node);
  }

  // A different seed shifts the pattern.
  faults::FaultSchedule c;
  c.generate(rates, 43, 100000.0, {3});
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.raw()[i].start_s != c.raw()[i].start_s;
  }
  EXPECT_TRUE(differs);

  // Per-target substreams: growing the cluster must not perturb the fault
  // pattern of the nodes that were already there.
  faults::FaultSchedule grown;
  grown.generate(rates, 42, 100000.0, {4});
  std::vector<faults::FaultWindow> small_n0n1n2, grown_n0n1n2;
  for (const auto& w : a.raw()) small_n0n1n2.push_back(w);
  for (const auto& w : grown.raw()) {
    if (w.node < 3) grown_n0n1n2.push_back(w);
  }
  ASSERT_EQ(small_n0n1n2.size(), grown_n0n1n2.size());
  for (std::size_t i = 0; i < small_n0n1n2.size(); ++i) {
    EXPECT_DOUBLE_EQ(small_n0n1n2[i].start_s, grown_n0n1n2[i].start_s);
    EXPECT_EQ(small_n0n1n2[i].node, grown_n0n1n2[i].node);
  }
}

TEST(FaultSchedule, GenerateNeedsAHorizonWhenRatesAreSet) {
  faults::FaultRates rates;
  rates.node_mttf_s = 5000.0;
  rates.node_mttr_s = 500.0;
  faults::FaultSchedule s;
  EXPECT_THROW(s.generate(rates, 1, 0.0, {2}), std::invalid_argument);
  // No enabled process: nothing to draw, any horizon is fine.
  faults::FaultSchedule quiet;
  EXPECT_NO_THROW(quiet.generate(faults::FaultRates{}, 1, 0.0, {2}));
  EXPECT_TRUE(quiet.empty());
}

// --- injector validation ------------------------------------------------------

TEST(FaultInjector, ValidatesHooksAndScheduleTargets) {
  sim::Engine engine;
  EXPECT_THROW(faults::FaultInjector(engine, {}, faults::FaultSchedule{}),
               std::invalid_argument);

  core::World world;
  world.cluster().add_nodes(2, cluster::Resources{12000_mhz, 4096_mb});
  core::PlacementController controller(engine, world, make_policy());

  {
    faults::FaultSchedule s;
    s.add(node_window(1, 0, 10.0, 20.0));  // domain 1 does not exist
    faults::FaultInjector inj(engine, {{&world, &controller, nullptr}}, std::move(s));
    EXPECT_THROW(inj.start(), std::invalid_argument);
  }
  {
    faults::FaultSchedule s;
    s.add(node_window(0, 7, 10.0, 20.0));  // node 7 does not exist
    faults::FaultInjector inj(engine, {{&world, &controller, nullptr}}, std::move(s));
    EXPECT_THROW(inj.start(), std::invalid_argument);
  }
  {
    faults::FaultSchedule s;
    faults::FaultWindow w;
    w.kind = faults::FaultKind::kLinkFault;
    w.domain = 0;
    w.to = 1;
    w.start_s = 10.0;
    w.end_s = 20.0;
    s.add(w);
    // Link faults need a migration manager to own the retry machinery.
    faults::FaultInjector inj(engine, {{&world, &controller, nullptr}}, std::move(s));
    EXPECT_THROW(inj.start(), std::invalid_argument);
  }
}

// --- node crash against a live world -----------------------------------------

TEST(FaultInjector, CrashDestroysVmsRevertsJobAndTimedRecoveryRestarts) {
  sim::Engine engine;
  core::World world;
  world.cluster().add_nodes(1, cluster::Resources{12000_mhz, 4096_mb});
  core::PlacementController controller(engine, world, make_policy());

  faults::FaultSchedule schedule;
  schedule.add(node_window(0, 0, 250.0, 600.0));
  faults::FaultInjector injector(engine, {{&world, &controller, nullptr}},
                                 std::move(schedule));  // continuous checkpointing

  const auto spec = make_job(0);
  engine.schedule_at(0_s, sim::EventPriority::kWorkloadArrival,
                     [&world, spec] { world.submit_job(spec); });

  // Probe the job's exact progress right as the crash fires but before
  // kFault runs (kWorkloadArrival sorts ahead of kFault at one
  // timestamp).
  double done_at_crash = -1.0;
  engine.schedule_at(util::Seconds{250.0}, sim::EventPriority::kWorkloadArrival, [&] {
    auto& job = world.job(util::JobId{0});
    job.advance_to(engine.now());
    done_at_crash = job.done().get();
    EXPECT_EQ(job.phase(), workload::JobPhase::kRunning);
  });

  controller.start();
  injector.start();

  engine.run_until(util::Seconds{250.0});
  const auto& job = world.job(util::JobId{0});
  ASSERT_GT(done_at_crash, 0.0);
  // Torn down: VM destroyed, job pending, continuous checkpointing kept
  // every MHz·s of progress, node refuses placement at zero power.
  EXPECT_EQ(job.phase(), workload::JobPhase::kPending);
  EXPECT_FALSE(job.vm().valid());
  EXPECT_TRUE(world.cluster().node(util::NodeId{0}).residents().empty());
  EXPECT_DOUBLE_EQ(job.done().get(), done_at_crash);
  EXPECT_EQ(world.cluster().node(util::NodeId{0}).power_state(), cluster::PowerState::kFailed);
  EXPECT_FALSE(world.cluster().node(util::NodeId{0}).placeable());
  EXPECT_EQ(injector.failed_node_count(0), 1u);
  EXPECT_DOUBLE_EQ(injector.availability(0), 0.0);  // the only node is down
  const auto mid = injector.stats(0, engine.now());
  EXPECT_EQ(mid.node_crashes, 1);
  EXPECT_EQ(mid.jobs_reverted, 1);
  EXPECT_DOUBLE_EQ(mid.jobs_lost_progress_s, 0.0);

  // While the node is down nothing can restart the job.
  engine.run_until(util::Seconds{599.0});
  EXPECT_EQ(world.job(util::JobId{0}).phase(), workload::JobPhase::kPending);
  EXPECT_DOUBLE_EQ(injector.downtime_s(0, engine.now()), 349.0);

  // Timed recovery: node comes back, the controller re-places the job and
  // it finishes with only the downtime lost, not the progress.
  while (world.completed_count() < 1 && engine.now().get() < 1.0e5) {
    engine.run_until(engine.now() + util::Seconds{1000.0});
  }
  ASSERT_EQ(world.completed_count(), 1u);
  EXPECT_EQ(world.cluster().node(util::NodeId{0}).power_state(), cluster::PowerState::kActive);
  EXPECT_GE(world.job(util::JobId{0}).done().get(), spec.work.get() - 1e-6);
  const auto fin = injector.stats(0, engine.now());
  EXPECT_EQ(fin.node_recoveries, 1);
  EXPECT_EQ(fin.repairs, 1);
  EXPECT_DOUBLE_EQ(injector.mttr_s(), 350.0);
  EXPECT_DOUBLE_EQ(fin.downtime_s, 350.0);
  EXPECT_TRUE(world.cluster().validate().empty());
}

TEST(FaultInjector, IntervalCheckpointingLosesProgressSinceLastTick) {
  sim::Engine engine;
  core::World world;
  world.cluster().add_nodes(1, cluster::Resources{12000_mhz, 4096_mb});
  core::PlacementController controller(engine, world, make_policy());

  faults::FaultSchedule schedule;
  schedule.add(node_window(0, 0, 250.0, 400.0));
  faults::FaultOptions options;
  options.checkpoint_interval_s = 100.0;  // ticks at 100, 200, ...
  faults::FaultInjector injector(engine, {{&world, &controller, nullptr}},
                                 std::move(schedule), options);

  const auto spec = make_job(0);
  engine.schedule_at(0_s, sim::EventPriority::kWorkloadArrival,
                     [&world, spec] { world.submit_job(spec); });

  // Sample the exact progress at the last checkpoint before the crash
  // (kSampling runs after the kFault checkpoint tick at t=200) and at
  // the crash instant (kWorkloadArrival runs before kFault at t=250).
  double done_at_ckpt = -1.0, done_at_crash = -1.0;
  engine.schedule_at(util::Seconds{200.0}, sim::EventPriority::kSampling, [&] {
    done_at_ckpt = world.job(util::JobId{0}).done().get();
  });
  engine.schedule_at(util::Seconds{250.0}, sim::EventPriority::kWorkloadArrival, [&] {
    auto& job = world.job(util::JobId{0});
    job.advance_to(engine.now());
    done_at_crash = job.done().get();
  });

  controller.start();
  injector.start();
  engine.run_until(util::Seconds{250.0});

  ASSERT_GT(done_at_ckpt, 0.0);
  ASSERT_GT(done_at_crash, done_at_ckpt);
  // The crash rewinds to the t=200 checkpoint; the 50 s of work done
  // since (at max_speed) is the accounted loss.
  EXPECT_DOUBLE_EQ(world.job(util::JobId{0}).done().get(), done_at_ckpt);
  EXPECT_DOUBLE_EQ(injector.stats(0, engine.now()).jobs_lost_progress_s,
                   (done_at_crash - done_at_ckpt) / spec.max_speed.get());
}

// --- link kill → retry/backoff timeline --------------------------------------

namespace {

/// Two-domain drain fixture: job 0 runs in its routed domain, which
/// drains at t=500 so the 540 s migration tick starts the evacuation
/// (suspend lands 15 s later, at 555). The link dies at 545 — after the
/// move was initiated, before the checkpoint hits the wire.
struct RetryFixture {
  sim::Engine engine;
  federation::Federation fed{engine, federation::make_router("least-loaded")};
  std::unique_ptr<migration::MigrationManager> mgr;
  std::size_t src = 99, dst = 99;

  explicit RetryFixture(int max_retries) {
    for (int i = 0; i < 2; ++i) {
      add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
    }
    migration::MigrationOptions opts;
    opts.check_interval = util::Seconds{60.0};
    opts.max_transfer_retries = max_retries;
    opts.retry_backoff_s = 30.0;
    opts.retry_backoff_max_s = 480.0;
    mgr = std::make_unique<migration::MigrationManager>(
        fed, migration::TransferModel{}, migration::make_migration_policy("drain"), opts);

    const auto spec = make_job(0);
    engine.schedule_at(0_s, sim::EventPriority::kWorkloadArrival,
                       [this, spec] { fed.submit_job(spec); });
    engine.schedule_at(util::Seconds{500.0}, sim::EventPriority::kWorkloadArrival, [this] {
      src = fed.job_domain(util::JobId{0});
      dst = 1 - src;
      fed.set_domain_weight(src, 0.0);
    });
    engine.schedule_at(util::Seconds{545.0}, sim::EventPriority::kFault,
                       [this] { mgr->apply_link_fault(src, dst, /*bandwidth_factor=*/0.0); });
    fed.start();
    mgr->start();
  }
};

}  // namespace

TEST(FaultRecovery, RetryBackoffTimelineIsClosedForm) {
  RetryFixture fx(/*max_retries=*/3);
  // Restore the link between the 2nd and 3rd retry attempts.
  fx.engine.schedule_at(util::Seconds{700.0}, sim::EventPriority::kFault,
                        [&fx] { fx.mgr->clear_link_fault(fx.src, fx.dst); });

  // Checkpoint lands at 555 on a dead link → park in retry-wait. Capped
  // exponential backoff from there: 30·2^k ⇒ attempts at 585 (down), 645
  // (down), 765 (link back up → resubmit succeeds).
  fx.engine.run_until(util::Seconds{556.0});
  EXPECT_TRUE(fx.mgr->job_in_flight(util::JobId{0}));
  EXPECT_EQ(fx.mgr->stats().started, 1);

  fx.engine.run_until(util::Seconds{764.0});
  EXPECT_EQ(fx.mgr->stats().transfer_retries, 0);  // both attempts found it down
  EXPECT_TRUE(fx.mgr->job_in_flight(util::JobId{0}));

  fx.engine.run_until(util::Seconds{766.0});
  EXPECT_EQ(fx.mgr->stats().transfer_retries, 1);

  // The resubmitted image takes 1300 MB / 125 MB/s + 2 s latency =
  // 12.4 s of wire time: arrival at exactly 777.4.
  fx.engine.run_until(util::Seconds{777.3});
  EXPECT_TRUE(fx.mgr->job_in_flight(util::JobId{0}));
  fx.engine.run_until(util::Seconds{777.5});
  EXPECT_FALSE(fx.mgr->job_in_flight(util::JobId{0}));
  EXPECT_EQ(fx.fed.job_domain(util::JobId{0}), fx.dst);

  while (fx.fed.total_completed() < 1 && fx.engine.now().get() < 1.0e5) {
    fx.engine.run_until(fx.engine.now() + util::Seconds{1000.0});
  }
  ASSERT_EQ(fx.fed.total_completed(), 1u);
  EXPECT_EQ(fx.mgr->stats().completed, 1);
  EXPECT_EQ(fx.mgr->stats().transfer_failbacks, 0);
  EXPECT_DOUBLE_EQ(fx.mgr->stats().work_lost_mhz_s, 0.0);  // exact checkpoint survived
  const auto& job = fx.fed.domain(fx.dst).world().job(util::JobId{0});
  EXPECT_EQ(job.phase(), workload::JobPhase::kCompleted);
  EXPECT_GE(job.done().get(), 3.0e6 - 1e-6);
}

TEST(FaultRecovery, ExhaustedRetryBudgetFailsBackToSource) {
  RetryFixture fx(/*max_retries=*/3);
  // Link stays dead through every backoff window (585, 645, 765): the
  // fourth schedule hits the budget and the job lands back at its source.
  fx.engine.schedule_at(util::Seconds{5000.0}, sim::EventPriority::kFault,
                        [&fx] { fx.mgr->clear_link_fault(fx.src, fx.dst); });

  fx.engine.run_until(util::Seconds{764.0});
  EXPECT_EQ(fx.mgr->stats().transfer_failbacks, 0);
  fx.engine.run_until(util::Seconds{766.0});
  EXPECT_EQ(fx.mgr->stats().transfer_failbacks, 1);
  EXPECT_EQ(fx.mgr->stats().transfer_retries, 0);
  EXPECT_FALSE(fx.mgr->job_in_flight(util::JobId{0}));
  EXPECT_EQ(fx.fed.job_domain(util::JobId{0}), fx.src);  // back home

  // The job recovers in place (the drained weight only steers new load
  // and drain proposals; a failed-back job may finish where it stands).
  while (fx.fed.total_completed() < 1 && fx.engine.now().get() < 1.0e5) {
    fx.engine.run_until(fx.engine.now() + util::Seconds{1000.0});
  }
  ASSERT_EQ(fx.fed.total_completed(), 1u);
  EXPECT_EQ(fx.mgr->stats().in_flight, 0);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_TRUE(fx.fed.domain(d).world().cluster().validate().empty()) << "domain " << d;
  }
}

TEST(FaultRecovery, BackedUpLinkRescoresQueuedTransfersCheapestFirst) {
  sim::Engine engine;
  federation::Federation fed{engine, federation::make_router("least-loaded")};
  for (int i = 0; i < 2; ++i) {
    add_nodes(fed.add_domain("d" + std::to_string(i), make_policy()), 2);
  }
  fed.set_domain_weight(1, 0.0);  // route everything to d0 first

  migration::MigrationOptions opts;
  opts.check_interval = util::Seconds{60.0};
  opts.rescore_queued_transfers = true;
  migration::MigrationManager mgr(fed, migration::TransferModel{5.0, 2.0},  // slow 5 MB/s link
                                  migration::make_migration_policy("drain"), opts);

  // Four jobs with very different images; FIFO would ship them in id
  // order once the drain starts.
  const double memory_mb[] = {1500.0, 2000.0, 600.0, 900.0};
  for (unsigned id = 0; id < 4; ++id) {
    auto spec = make_job(id);
    spec.memory = util::MemMb{memory_mb[id]};
    engine.schedule_at(0_s, sim::EventPriority::kWorkloadArrival,
                       [&fed, spec] { fed.submit_job(spec); });
  }
  engine.schedule_at(util::Seconds{500.0}, sim::EventPriority::kWorkloadArrival, [&fed] {
    fed.set_domain_weight(1, 1.0);
    fed.set_domain_weight(0, 0.0);  // drain d0 → all four queue on one slow pool
  });

  fed.start();
  mgr.start();

  // Job 0 (1500 MB) monopolizes the wire for 300 s; the next migration
  // tick sees a 3-deep backlog and re-ranks it 600, 900, 2000 — so the
  // small images land while FIFO would still be shipping job 1.
  engine.run_until(util::Seconds{1200.0});
  EXPECT_GT(mgr.stats().transfers_rescored, 0);
  EXPECT_EQ(fed.job_domain(util::JobId{2}), 1u);
  EXPECT_EQ(fed.job_domain(util::JobId{3}), 1u);
  EXPECT_EQ(fed.job_domain(util::JobId{1}), 0u);  // 2000 MB image still waiting
  EXPECT_TRUE(mgr.job_in_flight(util::JobId{1}));

  while (fed.total_completed() < 4 && engine.now().get() < 1.0e5) {
    engine.run_until(engine.now() + util::Seconds{1000.0});
  }
  ASSERT_EQ(fed.total_completed(), 4u);
  EXPECT_EQ(mgr.stats().completed, 4);
  EXPECT_EQ(mgr.stats().in_flight, 0);
}

// --- scenario-level: chaos determinism & bit-identity pins --------------------

namespace {

scenario::Scenario small_chaos_scenario() {
  scenario::Scenario base = scenario::section3_scaled(0.2);
  base.seed = 42;
  base.jobs.count = 20;
  base.jobs.mean_interarrival_s = 400.0;
  scenario::Scenario fs = scenario::federate(base, 3);
  fs.horizon_s = 60000.0;
  fs.migration.enabled = true;
  fs.migration.policy = "drain";
  fs.migration.check_interval_s = 120.0;
  fs.faults.enabled = true;
  fs.faults.checkpoint_interval_s = 600.0;
  fs.faults.node_mttf_s = 15000.0;
  fs.faults.node_mttr_s = 1500.0;
  fs.faults.events.push_back({"blackout", 1, 0, 0, 30000.0, 5000.0, 1.0});
  return fs;
}

}  // namespace

TEST(FaultScenario, ChaosRunsAreDeterministicAndAccounted) {
  const scenario::Scenario fs = small_chaos_scenario();
  scenario::ExperimentOptions opt;
  const auto r1 = scenario::run_federated_experiment(fs, opt);
  const auto r2 = scenario::run_federated_experiment(fs, opt);

  for (const char* name : {"fed_availability", "fed_fault_failed_nodes",
                           "fed_jobs_lost_progress_s", "fed_jobs_running",
                           "fed_jobs_completed", "fed_tx_alloc_mhz"}) {
    expect_same_series(r1.series, r2.series, name);
  }
  EXPECT_EQ(r1.summary.jobs_completed, r2.summary.jobs_completed);
  EXPECT_EQ(r1.faults.node_crashes, r2.faults.node_crashes);
  EXPECT_DOUBLE_EQ(r1.faults.downtime_s, r2.faults.downtime_s);
  EXPECT_DOUBLE_EQ(r1.faults.jobs_lost_progress_s, r2.faults.jobs_lost_progress_s);
  EXPECT_DOUBLE_EQ(r1.fault_mttr_s, r2.fault_mttr_s);

  // The chaos actually happened and is fully accounted.
  EXPECT_GT(r1.faults.node_crashes, 0);
  EXPECT_EQ(r1.faults.blackouts, 1);
  EXPECT_EQ(r1.faults.blackout_recoveries, 1);
  EXPECT_GT(r1.faults.downtime_s, 5000.0);  // at least the blackout window
  EXPECT_LT(r1.summary.availability, 1.0);
  EXPECT_GE(r1.faults.jobs_lost_progress_s, 0.0);
  // The blacked-out controller missed cycles; its healthy peer did not.
  EXPECT_LT(r1.domains[1].result.summary.cycles, r1.domains[0].result.summary.cycles);
}

TEST(FaultScenario, DisabledAndEnabledEmptyRunsAreBitIdentical) {
  // A faults-enabled run with an empty schedule must reproduce the
  // faults-disabled run exactly: the injector meters availability (a flat
  // 1.0) but never mutates. This pins "faults disabled == pre-fault
  // output" from the other side.
  scenario::Scenario off = scenario::section3_scaled(0.2);
  off.seed = 42;
  scenario::Scenario empty = off;
  empty.faults.enabled = true;

  scenario::ExperimentOptions opt;
  opt.max_sim_time_s = 2.0e6;
  const auto r_off = scenario::run_experiment(off, opt);
  const auto r_empty = scenario::run_experiment(empty, opt);

  EXPECT_EQ(r_off.series.find("availability"), nullptr);
  ASSERT_NE(r_empty.series.find("availability"), nullptr);
  for (const auto& p : r_empty.series.find("availability")->points()) {
    EXPECT_DOUBLE_EQ(p.v, 1.0);
  }

  for (const char* name : {"u_star", "tx_alloc_mhz", "lr_alloc_mhz", "active_jobs",
                           "jobs_completed", "tx_utility", "lr_hyp_utility"}) {
    expect_same_series(r_off.series, r_empty.series, name);
  }
  EXPECT_EQ(r_off.summary.jobs_completed, r_empty.summary.jobs_completed);
  EXPECT_DOUBLE_EQ(r_off.summary.tx_utility.mean(), r_empty.summary.tx_utility.mean());
  EXPECT_DOUBLE_EQ(r_off.summary.job_utility.mean(), r_empty.summary.job_utility.mean());
  EXPECT_EQ(r_off.summary.sim_end_time_s, r_empty.summary.sim_end_time_s);
  EXPECT_DOUBLE_EQ(r_empty.summary.availability, 1.0);
  EXPECT_EQ(r_empty.summary.fault_node_crashes, 0);
}

TEST(FaultScenario, FederatedDisabledAndEnabledEmptyRunsAreBitIdentical) {
  scenario::Scenario base = scenario::section3_scaled(0.2);
  base.seed = 42;
  scenario::Scenario off = scenario::federate(base, 3);
  scenario::Scenario empty = off;
  empty.faults.enabled = true;

  scenario::ExperimentOptions opt;
  opt.max_sim_time_s = 2.0e6;
  const auto r_off = scenario::run_federated_experiment(off, opt);
  const auto r_empty = scenario::run_federated_experiment(empty, opt);

  EXPECT_EQ(r_off.series.find("fed_availability"), nullptr);
  ASSERT_NE(r_empty.series.find("fed_availability"), nullptr);
  ASSERT_NE(r_empty.series.find("availability_dc0"), nullptr);
  for (const auto& p : r_empty.series.find("fed_availability")->points()) {
    EXPECT_DOUBLE_EQ(p.v, 1.0);
  }

  for (const char* name :
       {"fed_tx_alloc_mhz", "fed_lr_alloc_mhz", "fed_jobs_running", "fed_jobs_completed"}) {
    expect_same_series(r_off.series, r_empty.series, name);
  }
  ASSERT_EQ(r_off.domains.size(), r_empty.domains.size());
  for (std::size_t d = 0; d < r_off.domains.size(); ++d) {
    for (const char* name : {"u_star", "tx_alloc_mhz", "lr_alloc_mhz", "jobs_completed"}) {
      expect_same_series(r_off.domains[d].result.series, r_empty.domains[d].result.series,
                         name);
    }
    EXPECT_EQ(r_off.domains[d].result.summary.jobs_completed,
              r_empty.domains[d].result.summary.jobs_completed);
  }
  EXPECT_EQ(r_off.summary.jobs_completed, r_empty.summary.jobs_completed);
  EXPECT_DOUBLE_EQ(r_empty.summary.availability, 1.0);
}

// --- config surface -----------------------------------------------------------

TEST(FaultConfig, KeysRoundTripThroughLoader) {
  util::Config cfg;
  cfg.set("fault.enabled", "true");
  cfg.set("fault.seed", "7");
  cfg.set("fault.until_s", "50000");
  cfg.set("fault.checkpoint_interval_s", "900");
  cfg.set("fault.max_concurrent_repairs", "2");
  cfg.set("fault.node_mttf_s", "40000");
  cfg.set("fault.node_mttr_s", "2000");
  cfg.set("fault.events", "1");
  cfg.set("fault.event.0.kind", "node-crash");
  cfg.set("fault.event.0.domain", "0");
  cfg.set("fault.event.0.node", "2");
  cfg.set("fault.event.0.at_s", "1000");
  cfg.set("fault.event.0.duration_s", "600");
  const scenario::Scenario s = scenario::scenario_from_config(cfg);
  EXPECT_TRUE(s.faults.enabled);
  EXPECT_EQ(s.faults.seed, 7u);
  EXPECT_DOUBLE_EQ(s.faults.until_s, 50000.0);
  EXPECT_DOUBLE_EQ(s.faults.checkpoint_interval_s, 900.0);
  EXPECT_EQ(s.faults.max_concurrent_repairs, 2);
  EXPECT_DOUBLE_EQ(s.faults.node_mttf_s, 40000.0);
  EXPECT_DOUBLE_EQ(s.faults.node_mttr_s, 2000.0);
  ASSERT_EQ(s.faults.events.size(), 1u);
  EXPECT_EQ(s.faults.events[0].kind, "node-crash");
  EXPECT_EQ(s.faults.events[0].node, 2u);
  EXPECT_DOUBLE_EQ(s.faults.events[0].at_s, 1000.0);
  EXPECT_DOUBLE_EQ(s.faults.events[0].duration_s, 600.0);

  // Link faults and blackouts load once the config has domains >= 2
  // ("from" names a link event's source domain).
  cfg.set("domains", "3");
  cfg.set("migration.enabled", "true");
  cfg.set("fault.link_mttf_s", "30000");
  cfg.set("fault.link_mttr_s", "1200");
  cfg.set("fault.events", "3");
  cfg.set("fault.event.1.kind", "link-down");
  cfg.set("fault.event.1.from", "0");
  cfg.set("fault.event.1.to", "2");
  cfg.set("fault.event.1.at_s", "2000");
  cfg.set("fault.event.1.duration_s", "300");
  cfg.set("fault.event.1.severity", "0.5");
  cfg.set("fault.event.2.kind", "blackout");
  cfg.set("fault.event.2.domain", "1");
  cfg.set("fault.event.2.at_s", "9000");
  cfg.set("fault.event.2.duration_s", "1800");
  const scenario::Scenario fs = scenario::scenario_from_config(cfg);
  EXPECT_DOUBLE_EQ(fs.faults.link_mttf_s, 30000.0);
  ASSERT_EQ(fs.faults.events.size(), 3u);
  EXPECT_EQ(fs.faults.events[1].kind, "link-down");
  EXPECT_EQ(fs.faults.events[1].domain, 0u);
  EXPECT_EQ(fs.faults.events[1].to, 2u);
  EXPECT_DOUBLE_EQ(fs.faults.events[1].severity, 0.5);
  EXPECT_EQ(fs.faults.events[2].kind, "blackout");
  EXPECT_EQ(fs.faults.events[2].domain, 1u);
}

TEST(FaultConfig, RejectsInvalidValues) {
  const auto reject = [](const std::vector<std::pair<std::string, std::string>>& extra) {
    util::Config cfg;
    cfg.set("fault.enabled", "true");
    for (const auto& [k, v] : extra) cfg.set(k, v);
    EXPECT_THROW(scenario::scenario_from_config(cfg), util::ConfigError)
        << extra.front().first << " = " << extra.front().second;
  };

  reject({{"fault.node_mttf_s", "-1"}});
  reject({{"fault.checkpoint_interval_s", "-5"}});
  reject({{"fault.max_concurrent_repairs", "-1"}});
  // Half a rate pair is meaningless: MTTF without MTTR (and vice versa).
  reject({{"fault.node_mttf_s", "1000"}});
  reject({{"fault.node_mttr_s", "100"}});
  // Stochastic rates need a generation horizon (the default scenario has
  // horizon_s = 0, run-to-completion).
  reject({{"fault.node_mttf_s", "1000"}, {"fault.node_mttr_s", "100"}});
  // Unknown kind / unknown fault key fail loudly.
  reject({{"fault.events", "1"},
          {"fault.event.0.kind", "meteor-strike"},
          {"fault.event.0.at_s", "10"},
          {"fault.event.0.duration_s", "5"}});
  reject({{"fault.explode", "true"}});
  // Events need a time and a positive duration.
  reject({{"fault.events", "1"}, {"fault.event.0.duration_s", "5"}});
  reject({{"fault.events", "1"}, {"fault.event.0.at_s", "10"}});
  // Severity outside (0, 1], or on a kind that cannot be partial.
  reject({{"fault.events", "1"},
          {"fault.event.0.at_s", "10"},
          {"fault.event.0.duration_s", "5"},
          {"fault.event.0.severity", "1.5"}});
  reject({{"fault.events", "1"},
          {"fault.event.0.at_s", "10"},
          {"fault.event.0.duration_s", "5"},
          {"fault.event.0.severity", "0.5"}});
  // Out-of-range targets.
  reject({{"fault.events", "1"},
          {"fault.event.0.at_s", "10"},
          {"fault.event.0.duration_s", "5"},
          {"fault.event.0.node", "99"}});
  reject({{"fault.events", "1"},
          {"fault.event.0.at_s", "10"},
          {"fault.event.0.duration_s", "5"},
          {"fault.event.0.domain", "1"}});
  // Overlapping explicit windows on one target.
  reject({{"fault.events", "2"},
          {"fault.event.0.at_s", "10"},
          {"fault.event.0.duration_s", "50"},
          {"fault.event.1.at_s", "30"},
          {"fault.event.1.duration_s", "50"}});
  // Link faults and blackouts are federated concepts.
  reject({{"fault.link_mttf_s", "1000"}, {"fault.link_mttr_s", "100"}, {"fault.until_s", "1"}});
  reject({{"fault.events", "1"},
          {"fault.event.0.kind", "blackout"},
          {"fault.event.0.at_s", "10"},
          {"fault.event.0.duration_s", "5"}});

  // Federated-only rejections.
  const auto reject_fed = [](const std::vector<std::pair<std::string, std::string>>& extra) {
    util::Config cfg;
    cfg.set("domains", "3");
    cfg.set("fault.enabled", "true");
    for (const auto& [k, v] : extra) cfg.set(k, v);
    EXPECT_THROW(scenario::scenario_from_config(cfg), util::ConfigError)
        << extra.front().first << " = " << extra.front().second;
  };
  // Link faults need the migration subsystem (which owns the links).
  reject_fed({{"fault.events", "1"},
              {"fault.event.0.kind", "link-down"},
              {"fault.event.0.to", "1"},
              {"fault.event.0.at_s", "10"},
              {"fault.event.0.duration_s", "5"}});
  // A link must cross domains; both source spellings at once are ambiguous.
  reject_fed({{"migration.enabled", "true"},
              {"fault.events", "1"},
              {"fault.event.0.kind", "link-down"},
              {"fault.event.0.from", "1"},
              {"fault.event.0.to", "1"},
              {"fault.event.0.at_s", "10"},
              {"fault.event.0.duration_s", "5"}});
  reject_fed({{"migration.enabled", "true"},
              {"fault.events", "1"},
              {"fault.event.0.kind", "link-down"},
              {"fault.event.0.from", "0"},
              {"fault.event.0.domain", "0"},
              {"fault.event.0.to", "1"},
              {"fault.event.0.at_s", "10"},
              {"fault.event.0.duration_s", "5"}});
}

TEST(FaultConfig, MigrationRetryKeysRoundTripAndValidate) {
  util::Config cfg;
  cfg.set("domains", "2");
  cfg.set("migration.enabled", "true");
  cfg.set("migration.max_transfer_retries", "5");
  cfg.set("migration.retry_backoff_s", "20");
  cfg.set("migration.retry_backoff_max_s", "320");
  cfg.set("migration.rescore_queued_transfers", "true");
  const scenario::Scenario fs = scenario::scenario_from_config(cfg);
  EXPECT_EQ(fs.migration.max_transfer_retries, 5);
  EXPECT_DOUBLE_EQ(fs.migration.retry_backoff_s, 20.0);
  EXPECT_DOUBLE_EQ(fs.migration.retry_backoff_max_s, 320.0);
  EXPECT_TRUE(fs.migration.rescore_queued_transfers);

  const auto reject = [](const std::string& key, const std::string& value) {
    util::Config cfg;
    cfg.set("domains", "2");
    cfg.set("migration.enabled", "true");
    cfg.set(key, value);
    EXPECT_THROW(scenario::scenario_from_config(cfg), util::ConfigError)
        << key << " = " << value;
  };
  reject("migration.max_transfer_retries", "-1");
  reject("migration.retry_backoff_s", "0");
  reject("migration.retry_backoff_max_s", "5");  // below retry_backoff_s default 30
}

TEST(FaultInjector, RepairCrewLimitServesQueuedNodeRepairsInFailureOrder) {
  // Three nodes crash together at t=100, each with a 100 s repair. An
  // unlimited crew (the default) runs all repairs concurrently and every
  // node is back at t=200 — the pinned pre-crew behavior. A crew of one
  // serializes them in failure order: recoveries at 200, 300, 400.
  const auto failed_counts = [](int max_repairs) {
    sim::Engine engine;
    core::World world;
    world.cluster().add_nodes(3, cluster::Resources{12000_mhz, 4096_mb});
    core::PlacementController controller(engine, world, make_policy());
    faults::FaultSchedule schedule;
    for (std::size_t n = 0; n < 3; ++n) schedule.add(node_window(0, n, 100.0, 200.0));
    faults::FaultOptions opts;
    opts.max_concurrent_repairs = max_repairs;
    faults::FaultInjector injector(engine, {{&world, &controller, nullptr}}, std::move(schedule),
                                   opts);
    controller.start();
    injector.start();
    std::vector<std::size_t> counts;
    for (double t : {150.0, 250.0, 350.0, 450.0}) {
      engine.run_until(util::Seconds{t});
      counts.push_back(injector.failed_node_count(0));
    }
    EXPECT_EQ(injector.stats(0, engine.now()).node_crashes, 3);
    EXPECT_EQ(injector.stats(0, engine.now()).node_recoveries, 3);
    EXPECT_EQ(injector.stats(0, engine.now()).repairs, 3);
    // Hands-on time is the window duration regardless of queueing, so
    // MTTR prices the crew's work, not the backlog.
    EXPECT_DOUBLE_EQ(injector.mttr_s(), 100.0);
    return counts;
  };

  EXPECT_EQ(failed_counts(0), (std::vector<std::size_t>{3, 0, 0, 0}));  // unlimited
  EXPECT_EQ(failed_counts(3), (std::vector<std::size_t>{3, 0, 0, 0}));  // crew covers all
  EXPECT_EQ(failed_counts(2), (std::vector<std::size_t>{3, 1, 0, 0}));  // one queued
  EXPECT_EQ(failed_counts(1), (std::vector<std::size_t>{3, 2, 1, 0}));  // fully serialized
}

TEST(FaultInjector, RepairCrewRecoversNodesInFailureOrder) {
  // Staggered crashes under a crew of one: node 0 (down at 100) is fixed
  // first even though node 1 (down at 120) has the shorter window.
  sim::Engine engine;
  core::World world;
  world.cluster().add_nodes(2, cluster::Resources{12000_mhz, 4096_mb});
  core::PlacementController controller(engine, world, make_policy());
  faults::FaultSchedule schedule;
  schedule.add(node_window(0, 0, 100.0, 300.0));  // 200 s repair
  schedule.add(node_window(0, 1, 120.0, 170.0));  // 50 s repair, queued behind it
  faults::FaultOptions opts;
  opts.max_concurrent_repairs = 1;
  faults::FaultInjector injector(engine, {{&world, &controller, nullptr}}, std::move(schedule),
                                 opts);
  controller.start();
  injector.start();

  const auto active = [&world](std::size_t n) {
    return world.cluster().nodes()[n].power_state() == cluster::PowerState::kActive;
  };
  engine.run_until(util::Seconds{299.0});
  EXPECT_FALSE(active(0));
  EXPECT_FALSE(active(1));
  // Node 0's repair completes at 300; only then does the crew pick node 1
  // up, finishing its 50 s job at 350.
  engine.run_until(util::Seconds{320.0});
  EXPECT_TRUE(active(0));
  EXPECT_FALSE(active(1));
  engine.run_until(util::Seconds{360.0});
  EXPECT_TRUE(active(1));
  EXPECT_EQ(injector.stats(0, engine.now()).repairs, 2);
  EXPECT_DOUBLE_EQ(injector.stats(0, engine.now()).repair_time_s, 250.0);
}
