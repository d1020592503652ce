#include "scenario/config_loader.hpp"

#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "federation/router.hpp"
#include "migration/policy.hpp"
#include "scenario/class_factory.hpp"
#include "scenario/fault_factory.hpp"
#include "scenario/federation_experiment.hpp"
#include "scenario/obs_factory.hpp"
#include "scenario/power_factory.hpp"

namespace heteroplace::scenario {

namespace {

/// Track consumed keys so unknown keys can be rejected.
class KeyedConfig {
 public:
  explicit KeyedConfig(const util::Config& cfg) : cfg_(cfg) {}

  [[nodiscard]] double num(const std::string& key, double def) {
    used_.insert(key);
    return cfg_.get_double(key, def);
  }
  [[nodiscard]] long long integer(const std::string& key, long long def) {
    used_.insert(key);
    return cfg_.get_int(key, def);
  }
  [[nodiscard]] bool boolean(const std::string& key, bool def) {
    used_.insert(key);
    return cfg_.get_bool(key, def);
  }
  [[nodiscard]] std::string str(const std::string& key, const std::string& def) {
    used_.insert(key);
    return cfg_.get_string(key, def);
  }
  [[nodiscard]] bool has(const std::string& key) const { return cfg_.has(key); }

  // Read `key` into `field`; the field's current value is the default.
  void read(const std::string& key, double& field) { field = num(key, field); }
  void read(const std::string& key, bool& field) { field = boolean(key, field); }
  void read(const std::string& key, std::string& field) { field = str(key, field); }
  void read(const std::string& key, int& field) {
    field = static_cast<int>(integer(key, field));
  }
  void read(const std::string& key, long& field) {
    field = static_cast<long>(integer(key, field));
  }
  void read(const std::string& key, std::uint64_t& field) {
    field = static_cast<std::uint64_t>(integer(key, static_cast<long long>(field)));
  }
  template <typename D>
  void read(const std::string& key, util::Quantity<D>& field) {
    field.value = num(key, field.value);
  }

  void reject_unknown() const {
    for (const auto& key : cfg_.keys()) {
      if (used_.count(key) == 0) {
        throw util::ConfigError("unknown scenario config key: '" + key + "'");
      }
    }
  }

 private:
  const util::Config& cfg_;
  std::set<std::string> used_;
};

// The schema's plain keys, each bound to the field it sets, in rendering
// order. The loader reads every key into its field and the printer
// writes every field under its key, so the two cannot drift apart. `S`
// is Scenario (load) or const Scenario (print); `f(key, field)` does the
// work. Keys with structure (cluster, domains, apps, links, fault events,
// mode-dependent obs keys, SLO names) are handled beside each caller.
template <typename S, typename F>
void bind_scalar_keys(S& s, F&& f) {
  f("seed", s.seed);
  f("horizon_s", s.horizon_s);
  f("sample_interval_s", s.sample_interval_s);
  f("engine.threads", s.engine_threads);
  f("router", s.router);

  f("cycle_s", s.controller.cycle_s);
  auto& lat = s.controller.latencies;
  f("latency.start_job", lat.start_job);
  f("latency.suspend", lat.suspend_job);
  f("latency.resume", lat.resume_job);
  f("latency.migrate", lat.migrate_job);
  f("latency.start_instance", lat.start_instance);
  auto& sol = s.controller.solver;
  f("solver.allow_migration", sol.allow_migration);
  f("solver.work_conserving", sol.work_conserving);
  f("solver.protect_completion_horizon_s", sol.protect_completion_horizon_s);
  f("solver.instance_capacity_factor", sol.instance_capacity_factor);

  auto& jobs = s.jobs;
  f("jobs.count", jobs.count);
  f("jobs.mean_interarrival_s", jobs.mean_interarrival_s);
  f("jobs.tail_count", jobs.tail_count);
  f("jobs.tail_mean_interarrival_s", jobs.tail_mean_interarrival_s);
  f("jobs.work_mhz_s", jobs.tmpl.work);
  f("jobs.work_cv", jobs.tmpl.work_cv);
  f("jobs.max_speed_mhz", jobs.tmpl.max_speed);
  f("jobs.memory_mb", jobs.tmpl.memory);
  f("jobs.goal_stretch", jobs.tmpl.goal_stretch);
  f("jobs.importance", jobs.tmpl.importance);
  f("jobs.utility_shape", jobs.utility_shape);

  auto& m = s.migration;
  f("migration.enabled", m.enabled);
  f("migration.policy", m.policy);
  f("migration.check_interval_s", m.check_interval_s);
  f("migration.max_moves_per_tick", m.max_moves_per_tick);
  f("migration.high_watermark", m.high_watermark);
  f("migration.low_watermark", m.low_watermark);
  f("migration.link_mode", m.link_mode);
  f("migration.selection", m.selection);
  f("migration.max_queued_transfers", m.max_queued_transfers);
  f("migration.max_transfer_retries", m.max_transfer_retries);
  f("migration.retry_backoff_s", m.retry_backoff_s);
  f("migration.retry_backoff_max_s", m.retry_backoff_max_s);
  f("migration.rescore_queued_transfers", m.rescore_queued_transfers);
  f("migration.align_attach", m.align_attach);
  f("migration.default_bandwidth_mb_per_s", m.default_bandwidth_mb_per_s);
  f("migration.default_latency_s", m.default_latency_s);

  auto& pw = s.power;
  f("power.enabled", pw.enabled);
  f("power.policy", pw.policy);
  f("power.check_interval_s", pw.check_interval_s);
  f("power.idle_timeout_s", pw.idle_timeout_s);
  f("power.headroom_factor", pw.headroom_factor);
  f("power.min_active_nodes", pw.min_active_nodes);
  f("power.cap_w", pw.cap_w);
  f("power.park_state", pw.park_state);
  f("power.active_w", pw.active_w);
  f("power.standby_w", pw.standby_w);
  f("power.off_w", pw.off_w);
  f("power.park_latency_s", pw.park_latency_s);
  f("power.wake_latency_s", pw.wake_latency_s);
  f("power.pstates", pw.pstates);

  auto& ft = s.faults;
  f("fault.enabled", ft.enabled);
  f("fault.seed", ft.seed);
  f("fault.until_s", ft.until_s);
  f("fault.checkpoint_interval_s", ft.checkpoint_interval_s);
  f("fault.max_concurrent_repairs", ft.max_concurrent_repairs);
  f("fault.node_mttf_s", ft.node_mttf_s);
  f("fault.node_mttr_s", ft.node_mttr_s);
  f("fault.link_mttf_s", ft.link_mttf_s);
  f("fault.link_mttr_s", ft.link_mttr_s);
  f("fault.domain_mttf_s", ft.domain_mttf_s);
  f("fault.domain_mttr_s", ft.domain_mttr_s);

  auto& ob = s.obs;
  f("obs.trace", ob.trace);
  f("obs.metrics_path", ob.metrics_path);
  f("obs.metrics_json_path", ob.metrics_json_path);
  f("obs.profile", ob.profile);
  f("obs.audit", ob.audit);
  f("obs.sla_report_path", ob.sla_report_path);
  f("obs.sla_report_csv_path", ob.sla_report_csv_path);
}

// Per-entry key groups: `p` is the entry's key prefix.
template <typename C, typename F>
void bind_class_keys(const std::string& p, C& klass, F&& f) {
  f(p + "arch", klass.arch);
  f(p + "cores", klass.cores);
  f(p + "core_mhz", klass.core_mhz);
  f(p + "mem_mb", klass.mem_mb);
  f(p + "speed_factor", klass.speed_factor);
}

template <typename A, typename F>
void bind_app_keys(const std::string& p, A& spec, F&& f) {
  f(p + "name", spec.name);
  f(p + "rt_goal_s", spec.rt_goal);
  f(p + "service_demand_mhz_s", spec.service_demand);
  f(p + "importance", spec.importance);
  f(p + "instance_memory_mb", spec.instance_memory);
  f(p + "min_instances", spec.min_instances);
  f(p + "max_instances", spec.max_instances);
  f(p + "utility_cap", spec.utility_cap);
  f(p + "max_utilization", spec.max_utilization);
  f(p + "throughput_exponent", spec.throughput_exponent);
}

template <typename E, typename F>
void bind_fault_event_keys(const std::string& p, E& e, F&& f) {
  f(p + "kind", e.kind);
  f(p + "at_s", e.at_s);
  f(p + "duration_s", e.duration_s);
  f(p + "severity", e.severity);
}

template <typename L, typename F>
void bind_slo_keys(const std::string& p, L& slo, F&& f) {
  f(p + "target", slo.target);
  f(p + "long_window_s", slo.long_window_s);
  f(p + "short_window_s", slo.short_window_s);
  f(p + "burn_threshold", slo.burn_threshold);
}

}  // namespace

Scenario scenario_from_config(const util::Config& cfg) {
  KeyedConfig k(cfg);
  const auto read = [&k](const std::string& key, auto& field) { k.read(key, field); };

  const Scenario defaults = section3_scenario();
  Scenario s;
  s.jobs.tmpl.work = defaults.jobs.tmpl.work;  // the Section-3 job size
  bind_scalar_keys(s, read);
  if (s.engine_threads < 1) throw util::ConfigError("engine.threads: must be >= 1");
  try {
    (void)federation::make_router(s.router);
  } catch (const std::invalid_argument& e) {
    throw util::ConfigError(std::string("router: ") + e.what());
  }
  validate_power_spec(s.power);

  // --- cluster: the global pool, which federate() below splits ---------------
  ClusterSpec global_pool = defaults.domains.front().cluster;
  read("nodes", global_pool.nodes);
  read("cpu_per_node_mhz", global_pool.cpu_per_node_mhz);
  read("mem_per_node_mb", global_pool.mem_per_node_mb);
  // `classes = big,arm` names the pools; each pool is then described by
  // class.<name>.* keys. Scalar and pooled layouts are mutually
  // exclusive spellings of the cluster — mixing them is rejected rather
  // than guessed at.
  const std::vector<std::string> class_names =
      parse_tag_list(k.str("classes", ""), "classes");
  if (!class_names.empty()) {
    for (const char* key : {"nodes", "cpu_per_node_mhz", "mem_per_node_mb"}) {
      if (k.has(key)) {
        throw util::ConfigError(std::string(key) +
                                " has no effect with explicit machine classes; "
                                "size each pool via class.<name>.count");
      }
    }
    for (const std::string& name : class_names) {
      const std::string p = "class." + name + ".";
      ClassPoolSpec pool;
      pool.klass.name = name;
      bind_class_keys(p, pool.klass, read);
      pool.klass.accel = parse_tag_list(k.str(p + "accel", ""), p + "accel");
      read(p + "count", pool.count);
      global_pool.classes.push_back(std::move(pool));
    }
    validate_class_pools(global_pool);
  }

  // Shared shape for jobs.constraint.* / app.<i>.constraint.* keys.
  // Satisfiability is checked at the end, against the per-domain class
  // counts.
  auto parse_constraint = [&k](const std::string& p) {
    cluster::ConstraintSet c;
    c.arch = k.str(p + "arch", "");
    c.accel = parse_tag_list(k.str(p + "accel", ""), p + "accel");
    c.min_core_mhz = k.num(p + "min_core_mhz", 0.0);
    if (c.min_core_mhz < 0.0) {
      throw util::ConfigError(p + "min_core_mhz: must be nonnegative");
    }
    return c;
  };
  s.jobs.tmpl.constraint = parse_constraint("jobs.constraint.");

  // --- fault events -------------------------------------------------------------
  const auto n_fault_events = k.integer("fault.events", 0);
  if (n_fault_events < 0 || n_fault_events > 4096) {
    throw util::ConfigError("fault.events: out of range [0, 4096]");
  }
  const auto index = [&k](const std::string& key) {
    const auto v = k.integer(key, 0);
    if (v < 0) throw util::ConfigError(key + ": must be nonnegative");
    return static_cast<std::size_t>(v);
  };
  for (long long i = 0; i < n_fault_events; ++i) {
    const std::string p = "fault.event." + std::to_string(i) + ".";
    FaultEventSpec e;
    bind_fault_event_keys(p, e, read);
    // Link events name their source "from"; the other kinds "domain".
    // Both spellings land in the same field; setting both is ambiguous.
    const bool has_domain = k.has(p + "domain");
    const bool has_from = k.has(p + "from");
    if (has_domain && has_from) {
      throw util::ConfigError(p + "domain and " + p + "from are both set; keep one");
    }
    e.domain = index(has_from ? p + "from" : p + "domain");
    e.node = index(p + "node");
    e.to = index(p + "to");
    s.faults.events.push_back(std::move(e));
  }

  // --- observability: keys that only a live trace/audit mode reads --------------
  ObsSpec& ob = s.obs;
  read("obs.trace_path", ob.trace_path);
  read("obs.trace_ring_capacity", ob.trace_ring_capacity);
  read("obs.trace_engine", ob.trace_engine);
  if (!ob.trace_enabled()) {
    for (const char* key : {"obs.trace_path", "obs.trace_ring_capacity", "obs.trace_engine"}) {
      if (k.has(key)) {
        throw util::ConfigError(std::string(key) + " has no effect with obs.trace=off");
      }
    }
  } else if (ob.trace != "ring" && k.has("obs.trace_ring_capacity")) {
    throw util::ConfigError("obs.trace_ring_capacity has no effect with obs.trace=" + ob.trace);
  }
  read("obs.audit_path", ob.audit_path);
  read("obs.audit_ring_capacity", ob.audit_ring_capacity);
  if (!ob.audit_enabled()) {
    for (const char* key : {"obs.audit_path", "obs.audit_ring_capacity"}) {
      if (k.has(key)) {
        throw util::ConfigError(std::string(key) + " has no effect with obs.audit=off");
      }
    }
  }
  validate_obs_spec(ob);

  // --- transactional apps ---------------------------------------------------------
  const auto n_apps = k.integer("apps", 1);
  if (n_apps < 0 || n_apps > 64) throw util::ConfigError("apps: out of range [0, 64]");
  for (long long i = 0; i < n_apps; ++i) {
    const std::string p = "app." + std::to_string(i) + ".";
    TxAppScenario app;
    app.spec = defaults.apps.front().spec;
    app.spec.id = util::AppId{static_cast<util::AppId::underlying_type>(i)};
    app.spec.name = n_apps == 1 ? "web" : "app" + std::to_string(i);
    app.spec.max_instances = global_pool.total_nodes();
    bind_app_keys(p, app.spec, read);
    app.spec.max_cpu_per_instance = util::CpuMhz{global_pool.max_node_cpu_mhz()};
    app.spec.constraint = parse_constraint(p + "constraint.");
    app.trace = workload::DemandTrace{k.num(p + "lambda", 24.0)};
    s.apps.push_back(std::move(app));
  }

  // --- SLOs & burn-rate alerting ---------------------------------------------
  // `slos = web,jobs` names the objectives; each is then described by
  // slo.<name>.* keys. A name must be a tx app's name or the literal
  // "jobs" (batch completion-ratio objective). Parsed after the apps so
  // the name check sees the real app list.
  for (const std::string& name : parse_tag_list(k.str("slos", ""), "slos")) {
    const std::string p = "slo." + name + ".";
    if (name != "jobs") {
      bool known = false;
      for (const TxAppScenario& app : s.apps) known = known || app.spec.name == name;
      if (!known) {
        throw util::ConfigError("slos: '" + name +
                                "' is neither a tx app name nor the literal 'jobs'");
      }
    }
    obs::SloSpec slo;
    slo.app = name;
    bind_slo_keys(p, slo, read);
    if (!(slo.target > 0.0 && slo.target < 1.0)) {
      throw util::ConfigError(p + "target: must be in (0, 1)");
    }
    if (slo.short_window_s <= 0.0 || slo.long_window_s < slo.short_window_s) {
      throw util::ConfigError(p + "long_window_s/short_window_s: need 0 < short <= long");
    }
    if (slo.burn_threshold <= 0.0) {
      throw util::ConfigError(p + "burn_threshold: must be positive");
    }
    s.slos.push_back(std::move(slo));
  }

  // --- domains ----------------------------------------------------------------
  const auto n_domains = k.integer("domains", 1);
  if (n_domains < 1 || n_domains > 64) throw util::ConfigError("domains: out of range [1, 64]");
  // federate() splits the global pool evenly (remainder to the earliest
  // domains) and may leave later domains with zero nodes; explicit
  // domain.<i>.nodes overrides apply before the positivity check so
  // "2 nodes, 4 domains, 1 node each by override" is a valid config.
  // Heterogeneous specs split each class pool the same way, overridden
  // per-pool by domain.<i>.class.<name>.count (0 = none of that class
  // here, so a GPU pool can live in one domain only).
  s.domains.front().cluster = std::move(global_pool);
  s = federate(std::move(s), static_cast<int>(n_domains));
  s.name = k.str("name", "custom");  // set after federate(): no "-federated" suffix
  for (std::size_t i = 0; i < s.domains.size(); ++i) {
    const std::string p = "domain." + std::to_string(i) + ".";
    DomainSpec& d = s.domains[i];
    read(p + "name", d.name);
    if (d.cluster.heterogeneous()) {
      for (const char* key : {"nodes", "cpu_per_node_mhz", "mem_per_node_mb"}) {
        if (k.has(p + key)) {
          throw util::ConfigError(p + key +
                                  " has no effect with explicit machine classes; use " + p +
                                  "class.<name>.count");
        }
      }
      for (ClassPoolSpec& pool : d.cluster.classes) {
        const std::string ckey = p + "class." + pool.klass.name + ".count";
        read(ckey, pool.count);
        if (pool.count < 0) throw util::ConfigError(ckey + ": must be nonnegative");
      }
      if (d.cluster.total_nodes() < 1) {
        throw util::ConfigError(p + "class.<name>.count: domain has no nodes");
      }
    } else {
      read(p + "nodes", d.cluster.nodes);
      if (d.cluster.nodes < 1) throw util::ConfigError(p + "nodes: must be positive");
      read(p + "cpu_per_node_mhz", d.cluster.cpu_per_node_mhz);
      read(p + "mem_per_node_mb", d.cluster.mem_per_node_mb);
    }
    read(p + "first_cycle_at_s", d.first_cycle_at_s);
    read(p + "power_cap_w", d.power_cap_w);
    if (k.has(p + "power_cap_w") && d.power_cap_w < 0.0) {
      throw util::ConfigError(p + "power_cap_w: must be nonnegative (0 = uncapped)");
    }
  }

  // --- live migration ---------------------------------------------------------
  MigrationSpec& m = s.migration;
  try {
    (void)migration::make_migration_policy(m.policy);
  } catch (const std::invalid_argument& e) {
    throw util::ConfigError(std::string("migration.policy: ") + e.what());
  }
  if (m.check_interval_s <= 0.0) {
    throw util::ConfigError("migration.check_interval_s: must be positive");
  }
  if (m.max_moves_per_tick < 1) {
    throw util::ConfigError("migration.max_moves_per_tick: must be >= 1");
  }
  if (m.max_queued_transfers < 0) {
    throw util::ConfigError("migration.max_queued_transfers: must be nonnegative (0 = no guard)");
  }
  if (m.max_transfer_retries < 0) {
    throw util::ConfigError("migration.max_transfer_retries: must be nonnegative (0 = fail back "
                            "on the first link fault)");
  }
  if (m.retry_backoff_s <= 0.0) {
    throw util::ConfigError("migration.retry_backoff_s: must be positive");
  }
  if (m.retry_backoff_max_s < m.retry_backoff_s) {
    throw util::ConfigError("migration.retry_backoff_max_s: must be >= migration.retry_backoff_s");
  }
  validate_migration_modes(m);
  // Bandwidths have always been MB/s (images divide directly by them);
  // the preferred key now says so. The old *_mbps spelling is a
  // deprecated alias — same meaning, same units. Diagnostics name the
  // key the user actually wrote.
  const bool old_bw_key = k.has("migration.default_bandwidth_mbps");
  if (old_bw_key && k.has("migration.default_bandwidth_mb_per_s")) {
    throw util::ConfigError(
        "migration.default_bandwidth_mb_per_s and the deprecated "
        "migration.default_bandwidth_mbps are both set; keep one");
  }
  const std::string bw_key =
      old_bw_key ? "migration.default_bandwidth_mbps" : "migration.default_bandwidth_mb_per_s";
  read(bw_key, m.default_bandwidth_mb_per_s);
  if (m.default_bandwidth_mb_per_s <= 0.0) {
    throw util::ConfigError(bw_key + ": must be positive");
  }
  if (m.default_latency_s < 0.0) {
    throw util::ConfigError("migration.default_latency_s: must be nonnegative");
  }
  // Sparse inter-domain link overrides: bandwidth.<i>.<j> (MB/s) and
  // link_latency.<i>.<j> (s) for every ordered domain pair. Presence is
  // tested explicitly so an out-of-range value fails loudly instead of
  // masquerading as "unset".
  for (long long i = 0; i < n_domains; ++i) {
    for (long long j = 0; j < n_domains; ++j) {
      if (i == j) continue;
      const std::string suffix = std::to_string(i) + "." + std::to_string(j);
      const bool has_bw = k.has("bandwidth." + suffix);
      const bool has_lat = k.has("link_latency." + suffix);
      const double bw = k.num("bandwidth." + suffix, -1.0);
      const double lat = k.num("link_latency." + suffix, -1.0);
      if (has_bw && bw <= 0.0) {
        throw util::ConfigError("bandwidth." + suffix + ": must be positive");
      }
      if (has_bw && m.link_mode == "uplink") {
        throw util::ConfigError("bandwidth." + suffix +
                                ": has no effect with migration.link_mode = uplink; "
                                "use uplink_bandwidth.<i> (per-pair latency still applies)");
      }
      if (has_lat && lat < 0.0) {
        throw util::ConfigError("link_latency." + suffix + ": must be nonnegative");
      }
      if (!has_bw && !has_lat) continue;
      LinkSpec link;
      link.from = static_cast<std::size_t>(i);
      link.to = static_cast<std::size_t>(j);
      link.bandwidth_mb_per_s = has_bw ? bw : -1.0;
      link.latency_s = has_lat ? lat : -1.0;
      m.links.push_back(link);
    }
  }
  // Shared-uplink pool capacities: uplink_bandwidth.<i> (MB/s), used in
  // link_mode = uplink. Same fail-loud presence test as the pair links.
  for (long long i = 0; i < n_domains; ++i) {
    const std::string key = "uplink_bandwidth." + std::to_string(i);
    const bool has_uplink = k.has(key);
    const double uplink = k.num(key, -1.0);
    if (!has_uplink) continue;
    if (uplink <= 0.0) throw util::ConfigError(key + ": must be positive");
    if (m.link_mode != "uplink") {
      throw util::ConfigError(key + ": has no effect with migration.link_mode = " +
                              m.link_mode + "; set migration.link_mode = uplink");
    }
    m.uplinks.push_back({static_cast<std::size_t>(i), uplink});
  }

  // A constraint is satisfiable if any domain kept an admitting pool
  // (per-domain count overrides may have moved pools around).
  std::vector<const ClusterSpec*> domain_clusters;
  std::vector<std::size_t> nodes_per_domain;
  for (const DomainSpec& d : s.domains) {
    domain_clusters.push_back(&d.cluster);
    nodes_per_domain.push_back(static_cast<std::size_t>(d.cluster.total_nodes()));
  }
  validate_constraint(s.jobs.tmpl.constraint, domain_clusters, "jobs.constraint");
  for (std::size_t i = 0; i < s.apps.size(); ++i) {
    validate_constraint(s.apps[i].spec.constraint, domain_clusters,
                        "app." + std::to_string(i) + ".constraint");
  }
  validate_fault_spec(s.faults, nodes_per_domain, m.enabled, s.horizon_s);

  k.reject_unknown();
  return s;
}

std::string scenario_to_config(const Scenario& s) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << std::boolalpha;
  const auto write = [&os](const std::string& key, const auto& value) {
    os << key << " = " << value << "\n";
  };
  const auto join = [](const std::vector<std::string>& tags) {
    std::string out;
    for (const auto& t : tags) out += (out.empty() ? "" : ",") + t;
    return out;
  };
  const auto write_constraint = [&](const std::string& p, const cluster::ConstraintSet& c) {
    if (!c.arch.empty()) write(p + "arch", c.arch);
    if (!c.accel.empty()) write(p + "accel", join(c.accel));
    if (c.min_core_mhz > 0.0) write(p + "min_core_mhz", c.min_core_mhz);
  };

  write("name", s.name);
  bind_scalar_keys(s, write);
  const ObsSpec& ob = s.obs;
  if (ob.trace_enabled()) {
    write("obs.trace_path", ob.trace_path);
    write("obs.trace_engine", ob.trace_engine);
    if (ob.trace == "ring") write("obs.trace_ring_capacity", ob.trace_ring_capacity);
  }
  if (ob.audit_enabled()) {
    write("obs.audit_path", ob.audit_path);
    write("obs.audit_ring_capacity", ob.audit_ring_capacity);
  }

  // --- cluster: the global pool, then every domain's share ------------------
  // Class definitions are global; each domain holds its own counts.
  const ClusterSpec& first = s.domains.front().cluster;
  if (first.heterogeneous()) {
    std::vector<std::string> names;
    for (const auto& pool : first.classes) names.push_back(pool.klass.name);
    write("classes", join(names));
    for (std::size_t c = 0; c < first.classes.size(); ++c) {
      const cluster::MachineClass& klass = first.classes[c].klass;
      const std::string p = "class." + klass.name + ".";
      bind_class_keys(p, klass, write);
      if (!klass.accel.empty()) write(p + "accel", join(klass.accel));
      int count = 0;
      for (const DomainSpec& d : s.domains) count += d.cluster.classes.at(c).count;
      write(p + "count", count);
    }
  } else {
    int nodes = 0;
    for (const DomainSpec& d : s.domains) nodes += d.cluster.nodes;
    write("nodes", nodes);
    // The loader derives each app's per-instance CPU ceiling from the
    // global per-node CPU; every domain's own value is written below.
    write("cpu_per_node_mhz", s.apps.empty() ? first.cpu_per_node_mhz
                                             : s.apps.front().spec.max_cpu_per_instance.get());
    write("mem_per_node_mb", first.mem_per_node_mb);
  }
  write("domains", s.domains.size());
  for (std::size_t i = 0; i < s.domains.size(); ++i) {
    const DomainSpec& d = s.domains[i];
    const std::string p = "domain." + std::to_string(i) + ".";
    write(p + "name", d.name);
    if (d.cluster.heterogeneous()) {
      for (const ClassPoolSpec& pool : d.cluster.classes) {
        write(p + "class." + pool.klass.name + ".count", pool.count);
      }
    } else {
      write(p + "nodes", d.cluster.nodes);
      write(p + "cpu_per_node_mhz", d.cluster.cpu_per_node_mhz);
      write(p + "mem_per_node_mb", d.cluster.mem_per_node_mb);
    }
    if (d.first_cycle_at_s >= 0.0) write(p + "first_cycle_at_s", d.first_cycle_at_s);
    if (d.power_cap_w >= 0.0) write(p + "power_cap_w", d.power_cap_w);
  }
  for (const LinkSpec& link : s.migration.links) {
    const std::string suffix = std::to_string(link.from) + "." + std::to_string(link.to);
    if (link.bandwidth_mb_per_s != -1.0) write("bandwidth." + suffix, link.bandwidth_mb_per_s);
    if (link.latency_s != -1.0) write("link_latency." + suffix, link.latency_s);
  }
  for (const UplinkSpec& uplink : s.migration.uplinks) {
    write("uplink_bandwidth." + std::to_string(uplink.domain), uplink.bandwidth_mb_per_s);
  }

  // --- workload -------------------------------------------------------------------
  write_constraint("jobs.constraint.", s.jobs.tmpl.constraint);
  write("apps", s.apps.size());
  for (std::size_t i = 0; i < s.apps.size(); ++i) {
    const std::string p = "app." + std::to_string(i) + ".";
    bind_app_keys(p, s.apps[i].spec, write);
    write(p + "lambda", s.apps[i].trace.rate_at(util::Seconds{0.0}));
    write_constraint(p + "constraint.", s.apps[i].spec.constraint);
  }

  // --- fault events and SLOs ------------------------------------------------------
  write("fault.events", s.faults.events.size());
  for (std::size_t i = 0; i < s.faults.events.size(); ++i) {
    const FaultEventSpec& e = s.faults.events[i];
    const std::string p = "fault.event." + std::to_string(i) + ".";
    bind_fault_event_keys(p, e, write);
    write(p + (e.kind == "link-down" ? "from" : "domain"), e.domain);
    write(p + "node", e.node);
    write(p + "to", e.to);
  }
  if (!s.slos.empty()) {
    std::vector<std::string> names;
    for (const obs::SloSpec& slo : s.slos) names.push_back(slo.app);
    write("slos", join(names));
    for (const obs::SloSpec& slo : s.slos) bind_slo_keys("slo." + slo.app + ".", slo, write);
  }
  return os.str();
}

}  // namespace heteroplace::scenario
