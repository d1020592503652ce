#include "federation/domain.hpp"

#include <stdexcept>

namespace heteroplace::federation {

util::CpuMhz Domain::offered_cpu_load(util::Seconds now) const {
  double jobs = 0.0;
  for (const auto& [speed, count] : speed_hist_) {
    jobs += speed * static_cast<double>(count);
  }
  util::CpuMhz load{jobs};
  for (const workload::TxApp& app : world_.apps()) {
    load += app.offered_load(now);
  }
  return load;
}

void Domain::account_job_added(util::CpuMhz max_speed) {
  ++active_jobs_;
  ++speed_hist_[max_speed.get()];
}

void Domain::account_job_removed(util::CpuMhz max_speed) {
  auto it = speed_hist_.find(max_speed.get());
  if (it == speed_hist_.end() || active_jobs_ <= 0) {
    throw std::logic_error("Domain::account_job_removed: aggregate underflow");
  }
  --active_jobs_;
  if (--it->second == 0) speed_hist_.erase(it);
}

}  // namespace heteroplace::federation
