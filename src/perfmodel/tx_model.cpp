#include "perfmodel/tx_model.hpp"

#include <limits>

namespace heteroplace::perfmodel {

util::CpuMhz capacity_for_response_time(double lambda, double service_demand, util::Seconds rt) {
  if (rt.get() <= 0.0) return util::CpuMhz{std::numeric_limits<double>::infinity()};
  return util::CpuMhz{lambda * service_demand + service_demand / rt.get()};
}

TxPerfResult evaluate_tx_app(const workload::TxApp& app, util::Seconds t, util::CpuMhz capacity) {
  const auto& spec = app.spec();
  return evaluate_tx(app.arrival_rate(t), spec.service_demand, capacity, spec.max_utilization);
}

}  // namespace heteroplace::perfmodel
