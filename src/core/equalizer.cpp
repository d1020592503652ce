#include "core/equalizer.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

namespace heteroplace::core {

namespace {

// Bisection window and stopping rule for u*. The floor must be below any
// utility a consumer can have under starvation (it is widened below if
// not).
constexpr double kUFloor = -1.0e4;
constexpr double kUTolerance = 1.0e-5;
constexpr int kMaxIterations = 120;

/// Flattened curve parameters for one equalize() call: SoA job arrays
/// (with fn⁻¹ shared across consumers that have the same utility function
/// and importance), transactional curves, and a virtual-dispatch fallback
/// for consumers that export no closed form.
class CurveCache {
 public:
  explicit CurveCache(const std::vector<const UtilityConsumer*>& consumers) {
    refs_.reserve(consumers.size());
    std::map<std::pair<const void*, double>, std::uint32_t> group_ids;
    for (const auto* c : consumers) {
      CurveParams p = c->curve_params();
      switch (p.form) {
        case CurveParams::Form::kZero:
          refs_.push_back({Kind::kZero, 0});
          break;
        case CurveParams::Form::kJobInverse: {
          const auto key = std::make_pair(static_cast<const void*>(p.fn), p.importance);
          auto [it, inserted] = group_ids.emplace(key, static_cast<std::uint32_t>(groups_.size()));
          if (inserted) groups_.push_back({p.fn, p.importance});
          refs_.push_back({Kind::kJob, static_cast<std::uint32_t>(job_group_.size())});
          job_group_.push_back(it->second);
          job_submit_.push_back(p.submit);
          job_goal_.push_back(p.goal);
          job_now_.push_back(p.now);
          job_remaining_.push_back(p.remaining);
          job_max_speed_.push_back(p.max_speed);
          break;
        }
        case CurveParams::Form::kTxQueueing:
          refs_.push_back({Kind::kTx, static_cast<std::uint32_t>(tx_.size())});
          tx_.push_back(p.tx);
          break;
        case CurveParams::Form::kGeneric:
          refs_.push_back({Kind::kGeneric, static_cast<std::uint32_t>(generic_.size())});
          generic_.push_back(c);
          break;
      }
    }
    group_x_.resize(groups_.size());
  }

  /// Σ alloc_for_utility(u) across all consumers.
  [[nodiscard]] double total_at(double u) const {
    solve_groups(u);
    double total = 0.0;
    for (std::size_t i = 0; i < job_group_.size(); ++i) total += job_alloc(i);
    for (const auto& c : tx_) total += c.alloc_for_utility(u);
    for (const auto* c : generic_) total += c->alloc_for_utility(u).get();
    return total;
  }

  /// alloc_for_utility(u) of the i-th consumer (input order).
  [[nodiscard]] double alloc_at(std::size_t i, double u) const {
    const Ref r = refs_[i];
    switch (r.kind) {
      case Kind::kZero:
        return 0.0;
      case Kind::kJob:
        solve_groups(u);
        return job_alloc(r.idx);
      case Kind::kTx:
        return tx_[r.idx].alloc_for_utility(u);
      case Kind::kGeneric:
        break;
    }
    return generic_[r.idx]->alloc_for_utility(u).get();
  }

 private:
  enum class Kind : std::uint8_t { kZero, kJob, kTx, kGeneric };
  struct Ref {
    Kind kind;
    std::uint32_t idx;  // into the kind's own array
  };
  struct Group {
    const utility::UtilityFunction* fn;
    double importance;
  };

  /// Solve fn⁻¹(u·w) once per (fn, importance) group; every job in the
  /// group then needs only flat arithmetic.
  void solve_groups(double u) const {
    if (u == group_u_) return;
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      group_x_[g] = groups_[g].fn->inverse(u * groups_[g].importance);
    }
    group_u_ = u;
  }

  /// JobUtilityModel::speed_for_utility with the fn inversion hoisted
  /// into solve_groups().
  [[nodiscard]] double job_alloc(std::size_t j) const {
    return utility::speed_for_ratio(group_x_[job_group_[j]], job_submit_[j], job_goal_[j],
                                    job_now_[j], job_remaining_[j], job_max_speed_[j]);
  }

  std::vector<Ref> refs_;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> job_group_;
  std::vector<double> job_submit_, job_goal_, job_now_, job_remaining_, job_max_speed_;
  std::vector<utility::TxCurve> tx_;
  std::vector<const UtilityConsumer*> generic_;
  mutable std::vector<double> group_x_;
  mutable double group_u_{std::numeric_limits<double>::quiet_NaN()};
};

}  // namespace

EqualizeResult equalize(const std::vector<const UtilityConsumer*>& consumers,
                        util::CpuMhz capacity) {
  EqualizeResult result;
  result.allocations.resize(consumers.size());
  if (consumers.empty()) return result;

  double total_demand = 0.0;
  double u_hi = kUFloor;
  double u_min_max = 1e300;
  for (const auto* c : consumers) {
    total_demand += c->demand_max().get();
    u_hi = std::max(u_hi, c->utility_max());
    u_min_max = std::min(u_min_max, c->utility_max());
  }
  result.total_demand = util::CpuMhz{total_demand};

  if (total_demand <= capacity.get()) {
    // Uncontended: everyone receives full demand.
    result.contended = false;
    result.u_star = u_min_max;
    double total = 0.0;
    for (std::size_t i = 0; i < consumers.size(); ++i) {
      const util::CpuMhz a = consumers[i]->demand_max();
      result.allocations[i] = {a, consumers[i]->utility_at(a)};
      total += a.get();
    }
    result.total = util::CpuMhz{total};
    return result;
  }

  result.contended = true;

  const CurveCache cache(consumers);

  // Widen the floor if even the floor's allocations exceed capacity
  // (can happen with extreme importance weights).
  double u_lo = kUFloor;
  for (int widen = 0; widen < 16 && cache.total_at(u_lo) > capacity.get(); ++widen) {
    u_lo *= 2.0;
  }

  int iters = 0;

  // Bisect g(u) = total_alloc(u) − capacity, monotone non-decreasing.
  while (u_hi - u_lo > kUTolerance && iters < kMaxIterations) {
    const double mid = 0.5 * (u_lo + u_hi);
    if (cache.total_at(mid) <= capacity.get()) {
      u_lo = mid;
    } else {
      u_hi = mid;
    }
    ++iters;
  }
  result.iterations = iters;
  // Use the feasible side (total ≤ capacity).
  result.u_star = u_lo;

  double total = 0.0;
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    const util::CpuMhz a{cache.alloc_at(i, result.u_star)};
    result.allocations[i] = {a, consumers[i]->utility_at(a)};
    total += a.get();
  }

  // The bisection leaves a small slack (or FP overshoot). Scale down if
  // infeasible; leave tiny slack alone (the placement layer rounds anyway).
  if (total > capacity.get() && total > 0.0) {
    const double scale = capacity.get() / total;
    total = 0.0;
    for (std::size_t i = 0; i < consumers.size(); ++i) {
      result.allocations[i].alloc *= scale;
      result.allocations[i].utility = consumers[i]->utility_at(result.allocations[i].alloc);
      total += result.allocations[i].alloc.get();
    }
  }
  result.total = util::CpuMhz{total};
  return result;
}

}  // namespace heteroplace::core
