// SLA attribution / audit / alerting tests: the LogHistogram's
// deterministic bucket quantiles, the SlaLedger's wake metering and tx
// sample accounting, the AlertEngine's multiwindow burn-rate open/close,
// the AuditLog ring and its JSON dump, slo.* / obs.audit* config parsing
// in the config loader, and the tentpole contracts — every completed job's
// attribution closes (asserted in-binary, re-checked here from the JSON),
// the SLA report and audit dump are byte-identical across engine thread
// counts, and a fully-instrumented run stays digest-identical to an
// obs-off run.

#include "obs/sla.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/alerts.hpp"
#include "obs/audit.hpp"
#include "obs/trace_check.hpp"
#include "scenario/config_loader.hpp"
#include "scenario/experiment.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/obs_factory.hpp"
#include "scenario/result_digest.hpp"
#include "util/config.hpp"

using namespace heteroplace;

namespace {

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

double num(const obs::JsonValue* v) {
  return v != nullptr && v->type == obs::JsonValue::Type::kNumber ? v->number : 0.0;
}

}  // namespace

// --- log-bucket histogram ----------------------------------------------------

TEST(LogHistogram, QuantilesAreBucketBounds) {
  obs::LogHistogram h;
  for (int i = 0; i < 10; ++i) h.observe(1.0);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.0);
  // Every quantile of a point mass lands in the bucket holding 1.0:
  // the reported bound is the bucket's upper edge, within one growth
  // factor of the sample.
  for (double q : {0.1, 0.5, 0.99}) {
    const double b = h.quantile(q);
    EXPECT_GE(b, 1.0);
    EXPECT_LE(b, 1.0 * obs::LogHistogram::kGrowth);
  }
  // Underflow clamps to bucket 0, overflow (and inf) to the last bucket.
  obs::LogHistogram lo;
  lo.observe(0.0);
  EXPECT_DOUBLE_EQ(lo.quantile(0.5), obs::LogHistogram::bucket_bound(0));
  obs::LogHistogram hi;
  hi.observe(std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(hi.quantile(0.5),
                   obs::LogHistogram::bucket_bound(obs::LogHistogram::kBuckets - 1));
  EXPECT_DOUBLE_EQ(h.quantile(0.5), h.quantile(0.5));  // pure function of counts
}

TEST(LogHistogram, MergeMatchesPooledObservation) {
  obs::LogHistogram a, b, pooled;
  for (int i = 1; i <= 40; ++i) {
    const double v = 0.01 * i * i;
    (i % 2 == 0 ? a : b).observe(v);
    pooled.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_DOUBLE_EQ(a.sum(), pooled.sum());
  EXPECT_EQ(a.buckets(), pooled.buckets());
  for (double q : {0.05, 0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(a.quantile(q), pooled.quantile(q)) << "q=" << q;
  }
}

// --- ledger bookkeeping ------------------------------------------------------

TEST(SlaLedger, WakeMeteringAndForeignJobTolerance) {
  obs::SlaLedger ledger("dc0");
  // Nested wakes meter the union of [>=1 node waking], not the sum.
  ledger.on_wake_begin(10.0);
  ledger.on_wake_begin(15.0);
  ledger.on_wake_end(20.0);
  ledger.on_wake_end(30.0);
  EXPECT_DOUBLE_EQ(ledger.waking_integral(40.0), 20.0);
  // A job started here but admitted elsewhere (cross-domain migration
  // restore) finds no admit record and must be a no-op, not a throw.
  ledger.on_job_started(util::JobId{99}, 5.0);
  EXPECT_TRUE(ledger.jobs().empty());
}

TEST(SlaLedger, TxSamplesCountBreachesPerApp) {
  obs::SlaLedger ledger("dc0");
  ledger.on_tx_sample("web", 0.0, 0.5, 1.0);
  ledger.on_tx_sample("web", 10.0, 0.9, 1.0);
  ledger.on_tx_sample("web", 20.0, 2.0, 1.0);  // breach
  ledger.on_tx_sample("api", 20.0, 0.1, 0.5);
  const auto& web = ledger.tx_apps().at("web");
  EXPECT_EQ(web.samples, 3u);
  EXPECT_EQ(web.breaches, 1u);
  EXPECT_DOUBLE_EQ(web.goal_s, 1.0);
  EXPECT_EQ(ledger.tx_apps().at("api").breaches, 0u);
  const auto counts = ledger.slo_counts("web");
  EXPECT_EQ(counts.total, 3u);
  EXPECT_EQ(counts.bad, 1u);
  EXPECT_EQ(ledger.slo_counts("jobs").total, 0u);
}

// --- burn-rate alert engine --------------------------------------------------

TEST(AlertEngine, OpensOnSustainedBurnAndClosesAfterRecovery) {
  obs::SlaLedger ledger("dc0");
  obs::AlertEngine eng;
  eng.add_slo({"api", /*target=*/0.5, /*long_window_s=*/100.0, /*short_window_s=*/50.0,
               /*burn_threshold=*/1.0});
  eng.bind(nullptr, nullptr);
  const std::vector<const obs::SlaLedger*> ledgers{&ledger};

  double t = 0.0;
  const auto step = [&](double rt) {
    ledger.on_tx_sample("api", t, rt, 1.0);
    eng.evaluate(t, ledgers);
    t += 10.0;
  };

  for (int i = 0; i < 10; ++i) step(0.1);  // healthy: no alert
  EXPECT_EQ(eng.active(), 0);
  EXPECT_TRUE(eng.history().empty());

  for (int i = 0; i < 12; ++i) step(5.0);  // hard breach: burn >> threshold
  ASSERT_EQ(eng.history().size(), 1u);
  EXPECT_EQ(eng.active(), 1);
  EXPECT_EQ(eng.history().front().app, "api");
  EXPECT_LT(eng.history().front().closed_s, 0.0);  // still open

  for (int i = 0; i < 12; ++i) step(0.1);  // recovery drains the short window
  EXPECT_EQ(eng.active(), 0);
  ASSERT_EQ(eng.history().size(), 1u);
  EXPECT_GT(eng.history().front().closed_s, eng.history().front().opened_s);

  // Determinism: the same feed replayed gives byte-identical instants.
  obs::SlaLedger ledger2("dc0");
  obs::AlertEngine eng2;
  eng2.add_slo({"api", 0.5, 100.0, 50.0, 1.0});
  eng2.bind(nullptr, nullptr);
  const std::vector<const obs::SlaLedger*> ledgers2{&ledger2};
  double t2 = 0.0;
  const auto step2 = [&](double rt) {
    ledger2.on_tx_sample("api", t2, rt, 1.0);
    eng2.evaluate(t2, ledgers2);
    t2 += 10.0;
  };
  for (int i = 0; i < 10; ++i) step2(0.1);
  for (int i = 0; i < 12; ++i) step2(5.0);
  for (int i = 0; i < 12; ++i) step2(0.1);
  ASSERT_EQ(eng2.history().size(), 1u);
  EXPECT_EQ(eng2.history().front().opened_s, eng.history().front().opened_s);
  EXPECT_EQ(eng2.history().front().closed_s, eng.history().front().closed_s);
}

// --- audit ring --------------------------------------------------------------

TEST(AuditLog, RingBoundsDropsAndRendersJson) {
  EXPECT_THROW(obs::AuditLog("dc0", 0), std::invalid_argument);

  obs::AuditLog log("dc0", 4);
  for (int i = 0; i < 10; ++i) {
    obs::AuditRecord r;
    r.t = static_cast<double>(i);
    r.kind = 'J';
    r.verdict = "place";
    r.consumer = i;
    r.node = i % 3;
    log.record(r);
  }
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const std::vector<obs::AuditRecord> snap = log.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (int i = 0; i < 4; ++i) {  // oldest-first: survivors are 6..9
    EXPECT_DOUBLE_EQ(snap[static_cast<std::size_t>(i)].t, 6.0 + i);
  }

  const obs::JsonValue doc = obs::parse_json(obs::render_audit_json({&log}));
  ASSERT_EQ(doc.type, obs::JsonValue::Type::kObject);
  EXPECT_EQ(doc.find("schema")->string, "heteroplace-audit/v1");
  const obs::JsonValue* domains = doc.find("domains");
  ASSERT_NE(domains, nullptr);
  ASSERT_EQ(domains->array.size(), 1u);
  const obs::JsonValue& d0 = domains->array.front();
  EXPECT_EQ(d0.find("domain")->string, "dc0");
  EXPECT_DOUBLE_EQ(num(d0.find("total")), 10.0);
  EXPECT_DOUBLE_EQ(num(d0.find("dropped")), 6.0);
  ASSERT_EQ(d0.find("records")->array.size(), 4u);
  EXPECT_EQ(d0.find("records")->array.front().find("verdict")->string, "place");
}

// --- config surface ----------------------------------------------------------

TEST(SlaConfig, SloAndAuditKeysParseIntoBothLoaders) {
  const std::string sla_path = temp_path("cfg_sla.json");
  const std::string audit_path = temp_path("cfg_audit.json");
  const std::string cfg_text = "slos = web,jobs\n"
                               "slo.web.target = 0.95\n"
                               "slo.web.long_window_s = 3600\n"
                               "slo.web.short_window_s = 600\n"
                               "slo.web.burn_threshold = 2\n"
                               "obs.sla_report_path = " + sla_path + "\n"
                               "obs.audit = ring\n"
                               "obs.audit_ring_capacity = 512\n"
                               "obs.audit_path = " + audit_path + "\n";
  const auto s = scenario::scenario_from_config(util::Config::from_string(cfg_text));
  ASSERT_EQ(s.slos.size(), 2u);
  // parse_tag_list sorts the names, so look the SLOs up by app.
  const auto slo_named = [&](const std::string& app) -> const obs::SloSpec& {
    for (const obs::SloSpec& slo : s.slos) {
      if (slo.app == app) return slo;
    }
    throw std::logic_error("no slo named " + app);
  };
  const obs::SloSpec& web = slo_named("web");
  EXPECT_DOUBLE_EQ(web.target, 0.95);
  EXPECT_DOUBLE_EQ(web.long_window_s, 3600.0);
  EXPECT_DOUBLE_EQ(web.short_window_s, 600.0);
  EXPECT_DOUBLE_EQ(web.burn_threshold, 2.0);
  (void)slo_named("jobs");  // present, with defaults
  EXPECT_EQ(s.obs.sla_report_path, sla_path);
  EXPECT_TRUE(s.obs.sla_enabled());
  EXPECT_EQ(s.obs.audit, "ring");
  EXPECT_EQ(s.obs.audit_ring_capacity, 512);
  EXPECT_EQ(s.obs.audit_path, audit_path);

  const auto fs = scenario::scenario_from_config(
      util::Config::from_string("domains = 2\n" + cfg_text));
  ASSERT_EQ(fs.slos.size(), 2u);
  EXPECT_EQ(fs.obs.audit, "ring");
}

TEST(SlaConfig, FailsLoudly) {
  const auto load = [](const std::string& text) {
    return scenario::scenario_from_config(util::Config::from_string(text));
  };
  // An SLO must name a tx app or the literal "jobs".
  EXPECT_THROW((void)load("slos = nosuchapp\n"), util::ConfigError);
  // Range checks.
  EXPECT_THROW((void)load("slos = jobs\nslo.jobs.target = 1.5\n"), util::ConfigError);
  EXPECT_THROW((void)load("slos = jobs\nslo.jobs.long_window_s = 100\n"
                          "slo.jobs.short_window_s = 200\n"),
               util::ConfigError);
  EXPECT_THROW((void)load("slos = jobs\nslo.jobs.burn_threshold = 0\n"), util::ConfigError);
  // Audit keys are dead without obs.audit=ring; bogus modes and absurd
  // capacities fail in validate_obs_spec.
  EXPECT_THROW((void)load("obs.audit_path = x.json\n"), util::ConfigError);
  EXPECT_THROW((void)load("obs.audit_ring_capacity = 64\n"), util::ConfigError);
  EXPECT_THROW((void)load("obs.audit = bogus\n"), util::ConfigError);
  EXPECT_THROW((void)load("obs.audit = ring\nobs.audit_ring_capacity = 0\n"),
               util::ConfigError);
  scenario::ObsSpec spec;
  spec.sla_report_path = "/nonexistent-dir-xyz/sla.json";
  EXPECT_THROW(scenario::validate_obs_spec(spec), util::ConfigError);
}

// --- end-to-end: report closure, byte identity, digest pin -------------------

namespace {

/// Same shape as obs_test's everything-on scenario (every subsystem live,
/// aligned phases so parallel batches really form), plus SLOs and audit.
scenario::Scenario everything_on_sla_scenario() {
  auto base = scenario::section3_scaled(0.2);  // 5 nodes
  base.seed = 42;
  base.horizon_s = 30000.0;
  scenario::Scenario fs = scenario::federate(base, 3);
  for (auto& d : fs.domains) d.first_cycle_at_s = 0.0;
  fs.migration.enabled = true;
  fs.migration.policy = "drain+rebalance";
  fs.migration.check_interval_s = 300.0;
  fs.power.enabled = true;
  fs.power.policy = "idle-park";
  fs.power.idle_timeout_s = 1200.0;
  fs.faults.enabled = true;
  fs.faults.events.push_back({"node-crash", 1, 0, 0, 9000.0, 4000.0, 1.0});
  fs.faults.events.push_back({"blackout", 2, 0, 0, 15000.0, 2500.0, 1.0});
  fs.weight_events.push_back({0, 12000.0, 0.3});
  fs.slos.push_back({"web", 0.9, 7200.0, 1200.0, 1.0});
  fs.slos.push_back({"jobs", 0.5, 14400.0, 3600.0, 1.5});
  return fs;
}

}  // namespace

TEST(SlaReport, SingleWorldAttributionClosesAndParses) {
  auto s = scenario::section3_scaled(0.15);
  s.seed = 7;
  s.horizon_s = 20000.0;
  s.power.enabled = true;  // wake-exclusion path live
  s.slos.push_back({"jobs", 0.5, 7200.0, 1200.0, 1.0});
  s.obs.sla_report_path = temp_path("single_sla.json");
  s.obs.sla_report_csv_path = temp_path("single_sla.csv");
  const auto res = scenario::run_experiment(s, scenario::ExperimentOptions{});
  ASSERT_GT(res.summary.jobs_completed, 0);

  const obs::JsonValue doc = obs::parse_json(read_file(s.obs.sla_report_path));
  ASSERT_EQ(doc.type, obs::JsonValue::Type::kObject);
  EXPECT_EQ(doc.find("schema")->string, "heteroplace-sla-report/v1");
  const obs::JsonValue* merged = doc.find("merged");
  ASSERT_NE(merged, nullptr);
  EXPECT_DOUBLE_EQ(num(merged->find("jobs_completed")),
                   static_cast<double>(res.summary.jobs_completed));

  // Re-verify per-job closure from the serialized record: the components
  // must sum to the wall lifetime within 1e-9 relative after the
  // round-trip through shortest-round-trip formatting.
  const obs::JsonValue* jobs = doc.find("jobs");
  ASSERT_NE(jobs, nullptr);
  ASSERT_EQ(jobs->array.size(), static_cast<std::size_t>(res.summary.jobs_completed));
  const char* const components[] = {"queue_wait_s", "wake_excluded_s", "startup_s",
                                    "run_full_s",   "contention_s",    "redo_s",
                                    "suspend_s",    "resume_s",        "migration_s"};
  for (const obs::JsonValue& j : jobs->array) {
    const double wall = num(j.find("completion_s")) - num(j.find("submit_s"));
    double sum = 0.0;
    for (const char* c : components) sum += num(j.find(c));
    EXPECT_NEAR(sum, wall, 1e-9 * std::max(1.0, std::abs(wall)))
        << "job " << num(j.find("id"));
  }

  const std::string csv = read_file(s.obs.sla_report_csv_path);
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(csv.rfind("kind,", 0), 0u);  // header row first
}

TEST(SlaConfig, FederateCarriesSlos) {
  auto s = scenario::section3_scaled(0.2);
  s.slos.push_back({"web", 0.9, 7200.0, 1200.0, 1.0});
  s.slos.push_back({"jobs", 0.5, 14400.0, 3600.0, 1.5});
  const scenario::Scenario three = scenario::federate(s, 3);
  EXPECT_EQ(three.slos, s.slos);
  EXPECT_EQ(scenario::federate(s, 1).slos, s.slos);
  // federate() splits exactly one domain: an already-sharded scenario
  // (or one with no domains) is rejected, not re-split.
  EXPECT_THROW((void)scenario::federate(three, 2), std::invalid_argument);
  EXPECT_THROW((void)scenario::federate(three, 1), std::invalid_argument);
  scenario::Scenario empty = s;
  empty.domains.clear();
  EXPECT_THROW((void)scenario::federate(empty, 1), std::invalid_argument);
}

// run_experiment runs its one-domain scenario through
// run_federated_experiment: the scenario's SLOs must reach the report's
// alert section.
TEST(SlaReport, SingleWorldReportCarriesSloAlerts) {
  auto s = scenario::section3_scaled(0.15);
  s.seed = 7;
  s.horizon_s = 20000.0;
  s.slos.push_back({"jobs", 0.5, 7200.0, 1200.0, 1.0});
  s.obs.sla_report_path = temp_path("single_slo_sla.json");
  (void)scenario::run_experiment(s, scenario::ExperimentOptions{});

  const obs::JsonValue doc = obs::parse_json(read_file(s.obs.sla_report_path));
  const obs::JsonValue* alerts = doc.find("alerts");
  ASSERT_NE(alerts, nullptr);
  ASSERT_EQ(alerts->type, obs::JsonValue::Type::kObject);
  const obs::JsonValue* slos = alerts->find("slos");
  ASSERT_NE(slos, nullptr);
  ASSERT_EQ(slos->array.size(), 1u);
  EXPECT_EQ(slos->array[0].find("app")->string, "jobs");
  EXPECT_NE(alerts->find("events"), nullptr);
}

TEST(SlaReport, ByteIdenticalAcrossThreadCounts) {
  auto fs = everything_on_sla_scenario();
  scenario::ExperimentOptions opt;
  fs.obs.audit = "ring";
  fs.obs.audit_ring_capacity = 4096;

  fs.engine_threads = 1;
  fs.obs.sla_report_path = temp_path("sla_t1.json");
  fs.obs.sla_report_csv_path = temp_path("sla_t1.csv");
  fs.obs.audit_path = temp_path("audit_t1.json");
  (void)scenario::run_federated_experiment(fs, opt);

  fs.engine_threads = 4;
  fs.obs.sla_report_path = temp_path("sla_t4.json");
  fs.obs.sla_report_csv_path = temp_path("sla_t4.csv");
  fs.obs.audit_path = temp_path("audit_t4.json");
  const auto res = scenario::run_federated_experiment(fs, opt);
  EXPECT_GT(res.engine.parallel_batches, 0u);

  const std::string sla1 = read_file(temp_path("sla_t1.json"));
  ASSERT_FALSE(sla1.empty());
  EXPECT_EQ(sla1, read_file(temp_path("sla_t4.json")));
  EXPECT_EQ(read_file(temp_path("sla_t1.csv")), read_file(temp_path("sla_t4.csv")));
  const std::string audit1 = read_file(temp_path("audit_t1.json"));
  ASSERT_FALSE(audit1.empty());
  EXPECT_EQ(audit1, read_file(temp_path("audit_t4.json")));

  // The audit dump is real: every domain logged solver/executor records.
  const obs::JsonValue audit = obs::parse_json(audit1);
  EXPECT_EQ(audit.find("schema")->string, "heteroplace-audit/v1");
  const obs::JsonValue* domains = audit.find("domains");
  ASSERT_NE(domains, nullptr);
  ASSERT_EQ(domains->array.size(), 3u);
  for (const obs::JsonValue& d : domains->array) {
    EXPECT_GT(num(d.find("total")), 0.0) << d.find("domain")->string;
    EXPECT_FALSE(d.find("records")->array.empty());
  }

  // And the report carries all three domains plus the jobs SLO history.
  const obs::JsonValue sla = obs::parse_json(sla1);
  ASSERT_EQ(sla.find("domains")->array.size(), 3u);
  ASSERT_NE(sla.find("alerts"), nullptr);
  EXPECT_EQ(sla.find("alerts")->find("slos")->array.size(), 2u);
}

TEST(SlaReport, FullObsOnIsDigestIdentical) {
  auto fs = everything_on_sla_scenario();
  scenario::ExperimentOptions opt;

  for (int threads : {1, 4}) {
    fs.engine_threads = threads;
    fs.obs = {};
    fs.slos.clear();
    const auto off = scenario::digest(scenario::run_federated_experiment(fs, opt));

    fs = everything_on_sla_scenario();  // restore SLOs
    fs.engine_threads = threads;
    fs.obs.sla_report_path = temp_path("pin_sla.json");
    fs.obs.sla_report_csv_path = temp_path("pin_sla.csv");
    fs.obs.audit = "ring";
    fs.obs.audit_path = temp_path("pin_audit.json");
    const auto res = scenario::run_federated_experiment(fs, opt);
    EXPECT_EQ(scenario::digest(res), off) << "threads=" << threads;
  }
}
