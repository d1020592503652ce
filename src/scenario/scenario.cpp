#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace heteroplace::scenario {

int ClusterSpec::total_nodes() const {
  if (!heterogeneous()) return nodes;
  int total = 0;
  for (const auto& pool : classes) total += pool.count;
  return total;
}

double ClusterSpec::max_node_cpu_mhz() const {
  if (!heterogeneous()) return cpu_per_node_mhz;
  double best = 0.0;
  for (const auto& pool : classes) best = std::max(best, pool.klass.delivered_cpu_mhz());
  return best;
}

Scenario federate(Scenario s, int n_domains) {
  if (n_domains < 1) throw std::invalid_argument("federate: need at least one domain");
  if (s.domains.size() != 1) {
    throw std::invalid_argument("federate: scenario must have exactly one domain (has " +
                                std::to_string(s.domains.size()) + ")");
  }
  const DomainSpec whole = std::move(s.domains.front());
  s.domains.clear();
  // Even split, remainder to the earliest domains: of the node count for
  // a scalar spec, of each class pool for a heterogeneous one.
  const auto share = [n_domains](int total, int i) {
    return total / n_domains + (i < total % n_domains ? 1 : 0);
  };
  for (int i = 0; i < n_domains; ++i) {
    DomainSpec d = whole;
    d.name = "dc" + std::to_string(i);
    d.cluster.nodes = share(d.cluster.nodes, i);
    for (ClassPoolSpec& pool : d.cluster.classes) pool.count = share(pool.count, i);
    s.domains.push_back(std::move(d));
  }
  if (n_domains > 1) s.name += "-federated";
  return s;
}

Scenario section3_scenario() {
  Scenario s;
  s.name = "section3";

  ClusterSpec& cluster = s.domains.front().cluster;
  cluster.nodes = 25;
  cluster.cpu_per_node_mhz = 12000.0;  // 4 × 3 GHz
  cluster.mem_per_node_mb = 4096.0;

  // Long-running jobs: identical, single-processor, sized so that the
  // offered batch load slightly exceeds the capacity left over by the
  // transactional tier — the paper's "increasingly crowded" regime.
  s.jobs.count = 800;
  s.jobs.mean_interarrival_s = 260.0;
  s.jobs.tmpl.name_prefix = "batch";
  s.jobs.tmpl.work = util::MhzSeconds{4.8e7};  // 16,000 s at full speed
  s.jobs.tmpl.work_cv = 0.0;                   // identical jobs
  s.jobs.tmpl.max_speed = util::CpuMhz{3000.0};  // one processor
  s.jobs.tmpl.memory = util::MemMb{1300.0};      // 3 jobs fit per node
  s.jobs.tmpl.goal_stretch = 2.0;                // goal = 2 × nominal length
  s.jobs.utility_shape = "piecewise";

  // One constant transactional workload (the paper holds it constant).
  TxAppScenario web;
  web.spec.id = util::AppId{0};
  web.spec.name = "web";
  web.spec.rt_goal = util::Seconds{1.2};
  web.spec.service_demand = 5000.0;  // MHz·s per request
  web.spec.max_utilization = 0.9;
  web.spec.throughput_exponent = 0.5;
  web.spec.utility_cap = 0.9;
  web.spec.importance = 1.0;
  web.spec.instance_memory = util::MemMb{1024.0};
  web.spec.min_instances = 1;
  web.spec.max_instances = 25;
  web.spec.max_cpu_per_instance = util::CpuMhz{12000.0};
  web.trace = workload::DemandTrace{24.0};  // req/s, constant
  s.apps.push_back(std::move(web));

  s.controller.cycle_s = 600.0;
  s.sample_interval_s = 600.0;
  s.horizon_s = 0.0;  // run until the last job completes
  s.seed = 42;
  return s;
}

Scenario section3_scaled(double scale) {
  Scenario s = section3_scenario();
  scale = std::clamp(scale, 0.01, 1.0);
  if (scale >= 1.0) return s;

  s.name = "section3-scaled";
  int& nodes = s.domains.front().cluster.nodes;
  nodes = std::max(2, static_cast<int>(std::lround(25 * scale)));
  s.jobs.count = std::max<long>(4, std::lround(800 * scale));
  // Same inter-arrival, proportionally shorter jobs: the offered batch
  // load stays slightly above the scaled cluster's leftover capacity and
  // the run finishes quickly.
  s.jobs.tmpl.work = util::MhzSeconds{4.8e7 * scale};
  // Transactional demand scales with the cluster. The λ·d component
  // scales through λ; the RT-floor component d/(T(1−u_cap)) is scaled by
  // loosening the response-time goal, keeping demand/capacity constant.
  s.apps[0].trace = workload::DemandTrace{24.0 * scale};
  s.apps[0].spec.rt_goal = util::Seconds{1.2 / scale};
  s.apps[0].spec.max_instances = nodes;
  return s;
}

Scenario service_differentiation_scenario() {
  Scenario s = section3_scenario();
  s.name = "service-differentiation";
  s.apps.clear();

  TxAppScenario gold;
  gold.spec.id = util::AppId{0};
  gold.spec.name = "gold";
  gold.spec.rt_goal = util::Seconds{0.8};
  gold.spec.service_demand = 5000.0;
  gold.spec.max_utilization = 0.9;
  gold.spec.throughput_exponent = 0.5;
  gold.spec.utility_cap = 0.9;
  gold.spec.importance = 1.5;  // premium class
  gold.spec.instance_memory = util::MemMb{1024.0};
  gold.spec.min_instances = 1;
  gold.spec.max_instances = 25;
  gold.spec.max_cpu_per_instance = util::CpuMhz{12000.0};
  gold.trace = workload::DemandTrace{14.0};
  s.apps.push_back(std::move(gold));

  TxAppScenario silver;
  silver.spec.id = util::AppId{1};
  silver.spec.name = "silver";
  silver.spec.rt_goal = util::Seconds{2.0};
  silver.spec.service_demand = 5000.0;
  silver.spec.max_utilization = 0.9;
  silver.spec.throughput_exponent = 0.5;
  silver.spec.utility_cap = 0.9;
  silver.spec.importance = 1.0;
  silver.spec.instance_memory = util::MemMb{1024.0};
  silver.spec.min_instances = 1;
  silver.spec.max_instances = 25;
  silver.spec.max_cpu_per_instance = util::CpuMhz{12000.0};
  silver.trace = workload::DemandTrace{12.0};
  s.apps.push_back(std::move(silver));

  // Jobs with two importance classes are produced by the runner when
  // tmpl.importance differs; here keep the default stream.
  return s;
}

}  // namespace heteroplace::scenario
