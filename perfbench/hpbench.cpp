// hpbench: one measured call of the simulator per process.
//
// The repo benchmark (perfbench/run.py) runs this binary many times and
// aggregates. Each invocation generates one workload's FederatedScenario
// from a seed, then times the library's public entry points from the
// outside:
//
//   hpbench run   --workload W --seed N [--tiny] [--threads T] [--trace]
//                 --out DIR
//       scenario generation + load, then one run_federated_experiment.
//       --trace turns on the digest-excluded obs.profile and
//       ExperimentOptions::validate_invariants; the digest must not move.
//       Prints one JSON object: wall time, the CPU time the hypervisor
//       stole from the machine meanwhile, this process's peak RSS, the
//       result digest, SLA outcomes, conservation counts, the profile
//       rows, engine / migration / fault counters and obs output sizes.
//
//   hpbench setup --workload W --seed N [--tiny] --out DIR
//       kSetupReps repetitions of generation + load + the same run call
//       truncated to a near-zero horizon (world construction, job-stream
//       generation, arrival scheduling, result assembly). Prints the
//       durations.
//
// No OMP_* variable is set and omp_set_num_threads is never called: the
// OpenMP team size is whatever the host default is, and it is recorded.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "scenario/config_loader.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/result_digest.hpp"
#include "util/config.hpp"
#include "workload/transactional.hpp"

namespace {

using namespace heteroplace;

constexpr double kPi = 3.14159265358979323846;
constexpr int kSetupReps = 10;

int host_nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

int omp_default_team() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Workload seeds are decorrelated per workload so "seed 3" of fleet and
/// of chaos do not share an arrival stream. Kept below 2^47 so the value
/// survives the config loader's signed integer parse.
std::uint64_t scenario_seed(const std::string& workload, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : workload) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return (h ^ (seed * 0x9E3779B97F4A7C15ULL)) & 0x7fffffffffffULL;
}

/// A generated workload: config text for the public loader, plus the
/// diurnal demand traces the key=value format cannot express.
struct Generated {
  std::string config;
  struct Diurnal {
    double base_rate;  // req/s
    double amplitude;  // fraction of base
    double phase;      // radians
  };
  std::vector<Diurnal> traces;  // one per app, in app order
  double horizon_s{0.0};
  long jobs{0};
  int threads{1};
};

class ConfigWriter {
 public:
  template <typename T>
  ConfigWriter& set(const std::string& key, const T& value) {
    os_ << key << " = " << value << "\n";
    return *this;
  }
  [[nodiscard]] std::string str() const { return os_.str(); }

 private:
  std::ostringstream os_;
};

// All three generators share the paper's node (4 × 3000 MHz, 4 GB) and
// batch-job template (one processor, 1300 MB, goal = stretch × nominal
// length). Arrivals are open-loop Poisson over 80% of the horizon, so
// every generated job is submitted before the run ends.
void common_keys(ConfigWriter& w, const std::string& name, std::uint64_t seed, double horizon,
                 long jobs, double job_s, double work_cv, double goal_stretch) {
  w.set("name", name).set("seed", seed).set("horizon_s", horizon);
  w.set("cpu_per_node_mhz", 12000.0).set("mem_per_node_mb", 4096.0).set("cycle_s", 600.0);
  w.set("jobs.count", jobs).set("jobs.mean_interarrival_s", 0.8 * horizon / jobs);
  w.set("jobs.work_mhz_s", job_s * 3000.0).set("jobs.work_cv", work_cv);
  w.set("jobs.max_speed_mhz", 3000.0).set("jobs.memory_mb", 1300.0);
  w.set("jobs.goal_stretch", goal_stretch).set("jobs.utility_shape", "piecewise");
}

/// Transactional app `i` with a diurnal trace around `rate` req/s.
void add_app(ConfigWriter& w, Generated& g, int i, const std::string& name, double rt_goal_s,
             double importance, int min_instances, int max_instances, double rate,
             double amplitude, double phase) {
  const std::string p = "app." + std::to_string(i) + ".";
  w.set(p + "name", name).set(p + "rt_goal_s", rt_goal_s);
  w.set(p + "service_demand_mhz_s", 5000.0).set(p + "importance", importance);
  w.set(p + "instance_memory_mb", 1024.0).set(p + "min_instances", min_instances);
  w.set(p + "max_instances", max_instances).set(p + "utility_cap", 0.9);
  w.set(p + "max_utilization", 0.9).set(p + "throughput_exponent", 0.5);
  w.set(p + "lambda", rate);
  g.traces.push_back({rate, amplitude, phase});
}

/// Requests/s at which an app's λ·d alone takes `share` of `nodes` nodes.
double rate_for_share(double share, int nodes) { return share * nodes * 12000.0 / 5000.0; }

/// fleet: many aligned domains, batch-dominant, power on, a wide engine
/// pool. perf_macro's shape scaled down to seconds.
Generated gen_fleet(std::uint64_t seed, bool tiny, int nproc) {
  const int domains = tiny ? 4 : 24;
  const int per_domain = tiny ? 4 : 16;
  const double horizon = tiny ? 21600.0 : 86400.0;
  const long jobs = tiny ? 600 : 24000;
  const int nodes = domains * per_domain;
  // Job length set so the batch tier keeps 2.4 one-processor jobs per
  // 4-processor node busy (60% of the CPU) over the arrival span.
  const double job_s = 2.4 * nodes * 0.8 * horizon / static_cast<double>(jobs);

  Generated g;
  g.horizon_s = horizon;
  g.jobs = jobs;
  // Half the host's processors, not all: with a worker on every vCPU,
  // one vCPU stolen by the host stalls every merge barrier, and the
  // run-to-run spread of wall_s exceeded any usable regression bound.
  g.threads = nproc < 2 ? 1 : nproc / 2;
  ConfigWriter w;
  // Goal stretch 3.5: the diurnal peaks contend, but short jobs keep
  // enough slack that most still meet their goal.
  common_keys(w, "fleet", scenario_seed("fleet", seed), horizon, jobs, job_s, 0.0, 3.5);
  w.set("sample_interval_s", 1800.0);
  w.set("nodes", nodes).set("domains", domains).set("router", "least-loaded");
  // Aligned control phases so every 600 s boundary is one same-timestamp
  // batch of `domains` controller events for the worker pool.
  for (int d = 0; d < domains; ++d) {
    w.set("domain." + std::to_string(d) + ".first_cycle_at_s", 0.0);
  }
  // Four diurnal transactional classes, 5% of the fleet's CPU each.
  w.set("apps", 4);
  for (int a = 0; a < 4; ++a) {
    add_app(w, g, a, "svc" + std::to_string(a), 10.0 * (1.0 + 0.25 * a), 1.0 + 0.25 * a, 1,
            per_domain, rate_for_share(0.05, nodes), 0.3, 0.5 * kPi * a);
  }
  w.set("power.enabled", "true").set("power.policy", "idle-park");
  w.set("power.idle_timeout_s", 1800.0);
  w.set("engine.threads", g.threads);
  g.config = w.str();
  return g;
}

/// paper: the Section 3 controller scaled up: one domain, mixed batch
/// work plus several diurnal tx apps under heavy contention, serial
/// engine, every optional subsystem off.
Generated gen_paper(std::uint64_t seed, bool tiny) {
  const int nodes = tiny ? 25 : 200;
  const double scale = nodes / 25.0;
  const double horizon = tiny ? 43200.0 : 129600.0;
  // Section 3 rate (one job per 260 s on 25 nodes) scaled with the
  // cluster, Section 3 job length (16,000 s) with CV 0.5.
  const long jobs = std::lround(0.8 * horizon / (260.0 / scale));
  const double job_s = tiny ? 8000.0 : 16000.0;

  Generated g;
  g.horizon_s = horizon;
  g.jobs = jobs;
  g.threads = 1;
  ConfigWriter w;
  common_keys(w, "paper", scenario_seed("paper", seed), horizon, jobs, job_s, 0.5, 2.0);
  w.set("sample_interval_s", 600.0);
  w.set("nodes", nodes);
  // Section 3's 24 req/s web load, scaled with the cluster and split over
  // three classes with different goals and importance.
  w.set("apps", 3);
  const char* names[] = {"gold", "silver", "bronze"};
  const double goals[] = {1.0, 1.5, 2.5};
  const double importance[] = {1.5, 1.0, 0.75};
  for (int a = 0; a < 3; ++a) {
    add_app(w, g, a, names[a], goals[a], importance[a], 1, nodes, 8.0 * scale, 0.3,
            2.0 * kPi * a / 3.0);
  }
  w.set("engine.threads", g.threads);
  g.config = w.str();
  return g;
}

/// chaos: a few auto-staggered domains with every subsystem on: live
/// migration over contended uplinks, stochastic node/link/domain faults
/// with checkpoint rollback, idle-park power, SLOs + SLA report + audit
/// ring + metrics snapshot, and a small engine pool.
Generated gen_chaos(std::uint64_t seed, bool tiny, int nproc, const std::string& out_dir) {
  const int domains = tiny ? 3 : 6;
  const int per_domain = tiny ? 8 : 12;
  const double horizon = tiny ? 43200.0 : 345600.0;
  const int nodes = domains * per_domain;
  // 1.8 jobs per node (45% of the CPU) plus two tx apps whose tight
  // goals ask for more CPU than is left: every cycle is contended, so the
  // solver suspends, resumes and evicts, yet the batch backlog drains.
  const double job_s = tiny ? 3600.0 : 10800.0;
  const long jobs = std::lround(1.8 * nodes * 0.8 * horizon / job_s);

  Generated g;
  g.horizon_s = horizon;
  g.jobs = jobs;
  g.threads = nproc < 2 ? nproc : 2;
  ConfigWriter w;
  common_keys(w, "chaos", scenario_seed("chaos", seed), horizon, jobs, job_s, 0.3, 2.0);
  w.set("sample_interval_s", 900.0);
  w.set("nodes", nodes).set("domains", domains).set("router", "least-loaded");
  // Four instances minimum, so one node crash degrades an app instead
  // of leaving it with no capacity at all.
  w.set("apps", 2);
  add_app(w, g, 0, "web", 1.5, 1.5, 4, per_domain, rate_for_share(0.12, nodes), 0.3, 0.0);
  add_app(w, g, 1, "api", 2.25, 1.0, 4, per_domain, rate_for_share(0.12, nodes), 0.3, kPi);

  w.set("migration.enabled", "true").set("migration.policy", "drain+rebalance");
  w.set("migration.selection", "cost").set("migration.link_mode", "uplink");
  w.set("migration.check_interval_s", 300.0).set("migration.max_moves_per_tick", 6);
  w.set("migration.max_transfer_retries", 6);
  // 10 MB/s uplinks: a 1.3 GB image takes over two minutes on the wire,
  // so drain waves queue and the frequent link faults below kill
  // transfers in flight, which then back off and retry.
  for (int d = 0; d < domains; ++d) {
    w.set("uplink_bandwidth." + std::to_string(d), 10.0);
  }

  w.set("fault.enabled", "true").set("fault.checkpoint_interval_s", 1800.0);
  w.set("fault.node_mttf_s", 4.0 * 86400.0).set("fault.node_mttr_s", 3600.0);
  w.set("fault.link_mttf_s", 7200.0).set("fault.link_mttr_s", 1800.0);
  w.set("fault.domain_mttf_s", 2.0 * 86400.0).set("fault.domain_mttr_s", 900.0);

  w.set("power.enabled", "true").set("power.policy", "idle-park");
  w.set("power.idle_timeout_s", 1800.0);

  w.set("slos", "web,api,jobs");
  w.set("slo.web.target", 0.95).set("slo.web.long_window_s", 14400.0);
  w.set("slo.web.short_window_s", 3600.0).set("slo.web.burn_threshold", 2.0);
  w.set("slo.api.target", 0.9).set("slo.api.long_window_s", 14400.0);
  w.set("slo.api.short_window_s", 3600.0).set("slo.api.burn_threshold", 2.0);
  w.set("slo.jobs.target", 0.5).set("slo.jobs.long_window_s", 86400.0);
  w.set("slo.jobs.short_window_s", 14400.0).set("slo.jobs.burn_threshold", 1.5);
  w.set("obs.sla_report_path", out_dir + "/sla_report.json");
  w.set("obs.audit", "ring").set("obs.audit_path", out_dir + "/audit.json");
  w.set("obs.metrics_path", out_dir + "/metrics.prom");

  w.set("engine.threads", g.threads);
  g.config = w.str();
  return g;
}

Generated generate(const std::string& workload, std::uint64_t seed, bool tiny,
                   const std::string& out_dir) {
  const int nproc = host_nproc();
  if (workload == "fleet") return gen_fleet(seed, tiny, nproc);
  if (workload == "paper") return gen_paper(seed, tiny);
  if (workload == "chaos") return gen_chaos(seed, tiny, nproc, out_dir);
  throw std::invalid_argument("unknown workload '" + workload + "' (fleet|paper|chaos)");
}

/// The public load path: key=value text through the config loader, then
/// the diurnal traces (hourly breakpoints over the horizon).
scenario::FederatedScenario load(const Generated& g) {
  scenario::FederatedScenario fs =
      scenario::federated_scenario_from_config(util::Config::from_string(g.config));
  for (std::size_t a = 0; a < g.traces.size(); ++a) {
    const Generated::Diurnal& d = g.traces[a];
    workload::DemandTrace trace;
    for (double t = 0.0; t < g.horizon_s; t += 3600.0) {
      trace.add(util::Seconds{t},
                d.base_rate * (1.0 + d.amplitude * std::sin(2.0 * kPi * t / 86400.0 + d.phase)));
    }
    fs.apps.at(a).trace = std::move(trace);
  }
  return fs;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// CPU-seconds the hypervisor gave to other guests, summed over this
/// machine's CPUs: the steal column of /proc/stat. 0 where not reported.
double steal_cpu_s() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double field[8] = {};  // user nice system idle iowait irq softirq steal
  if (!(f >> cpu) || cpu != "cpu") return 0.0;
  for (double& x : field) f >> x;
  return field[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

long file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<long>(n);
}

double last_value(const util::TimeSeriesSet& set, const std::string& name) {
  const util::TimeSeries* s = set.find(name);
  return s == nullptr || s->empty() ? 0.0 : s->points().back().v;
}

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed{1};
  bool tiny{false};
  bool trace{false};
  int threads{0};  // 0 = the workload's own choice
  std::string out_dir{"."};
};

void print_env(std::ostringstream& os, const Generated& g, const Args& a) {
  os << "\"env\":{\"nproc\":" << host_nproc()
     << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
     << ",\"omp_max_threads\":" << omp_default_team() << ",\"compiler\":\"" << HPBENCH_COMPILER
     << "\",\"cxx_flags\":\"" << HPBENCH_CXX_FLAGS << "\",\"build_type\":\"" << HPBENCH_BUILD_TYPE
     << "\",\"engine_threads\":" << (a.threads > 0 ? a.threads : g.threads)
     << ",\"seed\":" << a.seed << ",\"shape\":\"" << (a.tiny ? "tiny" : "full") << "\"}";
}

int do_setup(const Args& a) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"setup_s\":[";
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    const Generated g = generate(a.workload, a.seed, a.tiny, a.out_dir);
    const scenario::FederatedScenario fs = load(g);
    scenario::ExperimentOptions opts;
    opts.horizon_override_s = 1e-3;
    const scenario::FederatedResult res = scenario::run_federated_experiment(fs, opts);
    const double dt = seconds_since(t0);
    if (res.domains.empty()) throw std::runtime_error("setup run returned no domains");
    os << (r > 0 ? "," : "") << dt;
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

int do_run(const Args& a) {
  const Generated g = generate(a.workload, a.seed, a.tiny, a.out_dir);
  scenario::FederatedScenario fs = load(g);
  if (a.threads > 0) fs.engine_threads = a.threads;
  scenario::ExperimentOptions opts;
  if (a.trace) {
    fs.obs.profile = true;
    opts.validate_invariants = true;
  }
  // Outputs of an earlier run must not pass for this run's.
  for (const std::string& path :
       {fs.obs.sla_report_path, fs.obs.audit_path, fs.obs.metrics_path}) {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove(path, ec);
  }

  const double steal0 = steal_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  const scenario::FederatedResult res = scenario::run_federated_experiment(fs, opts);
  const double wall_s = seconds_since(t0);
  const double steal_s = steal_cpu_s() - steal0;

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  const scenario::ExperimentSummary& s = res.summary;
  const long goal_met = std::lround(s.goal_met_fraction * static_cast<double>(s.jobs_completed));
  std::ostringstream os;
  os.precision(17);
  char digest[32];
  std::snprintf(digest, sizeof(digest), "0x%016llx",
                static_cast<unsigned long long>(scenario::digest(res)));
  os << "{\"workload\":\"" << a.workload << "\",\"traced\":" << (a.trace ? "true" : "false")
     << ",\"wall_s\":" << wall_s << ",\"steal_s\":" << steal_s
     << ",\"maxrss_kb\":" << ru.ru_maxrss << ",\"digest\":\"" << digest << "\""
     << ",\"jobs_generated\":" << g.jobs
     << ",\"jobs_completed\":" << s.jobs_completed
     << ",\"active_end\":" << std::llround(last_value(res.series, "fed_active_jobs"))
     << ",\"completed_end\":" << std::llround(last_value(res.series, "fed_jobs_completed"))
     << ",\"mig_in_flight\":" << res.migration.in_flight << ",\"goal_met\":" << goal_met
     << ",\"tx_utility_mean\":" << s.tx_utility.mean()
     << ",\"equalization_gap\":" << s.equalization_gap.mean()
     << ",\"equalization_gap_samples\":" << s.equalization_gap.count()
     << ",\"power_on\":" << (fs.power.enabled ? "true" : "false")
     << ",\"energy_kwh\":" << last_value(res.series, "fed_energy_wh") / 1000.0
     << ",\"invariant_violations\":" << s.invariant_violations << ",\"cycles\":" << s.cycles
     << ",\"actions\":{\"starts\":" << s.actions.starts << ",\"suspends\":" << s.actions.suspends
     << ",\"resumes\":" << s.actions.resumes << ",\"migrations\":" << s.actions.migrations << "}"
     << ",\"engine\":{\"events\":" << res.engine.events_executed
     << ",\"batched_events\":" << res.engine.batched_events
     << ",\"serial_spine_ns\":" << res.engine.serial_spine_ns
     << ",\"batch_exec_ns\":" << res.engine.batch_exec_ns
     << ",\"merge_barrier_ns\":" << res.engine.merge_barrier_ns << "}"
     << ",\"migration\":{\"started\":" << res.migration.started
     << ",\"transfer_retries\":" << res.migration.transfer_retries << "}"
     << ",\"faults\":{\"jobs_reverted\":" << res.faults.jobs_reverted << "}"
     << ",\"obs\":{\"sla_report\":\"" << fs.obs.sla_report_path
     << "\",\"sla_report_bytes\":" << file_bytes(fs.obs.sla_report_path)
     << ",\"audit_bytes\":" << file_bytes(fs.obs.audit_path)
     << ",\"metrics_bytes\":" << file_bytes(fs.obs.metrics_path) << "}"
     << ",\"profile\":[";
  for (std::size_t i = 0; i < res.profile.size(); ++i) {
    const obs::ProfileEntry& e = res.profile[i];
    os << (i > 0 ? "," : "") << "{\"name\":\"" << e.name << "\",\"calls\":" << e.calls
       << ",\"ns\":" << e.total_ns << "}";
  }
  os << "],";
  print_env(os, g, a);
  os << "}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      a.tiny = true;
    } else if (arg == "--trace") {
      a.trace = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--threads" && has_value) {
      a.threads = std::atoi(argv[++i]);
    } else if (arg == "--out" && has_value) {
      a.out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return (a.mode == "run" || a.mode == "setup") && !a.workload.empty() && a.threads >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: hpbench run|setup --workload fleet|paper|chaos --seed N [--tiny] "
                 "[--trace] [--threads T] [--out DIR]\n");
    return 2;
  }
  try {
    std::filesystem::create_directories(a.out_dir);
    return a.mode == "run" ? do_run(a) : do_setup(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpbench: %s\n", e.what());
    return 1;
  }
}
