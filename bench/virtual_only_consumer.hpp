#pragma once

// The equalizer's reference path, for the benches that time against it.
//
// A consumer that exports CurveParams is evaluated by core::equalize from
// flat arrays. Wrapped in VirtualOnlyConsumer it exports none, so the
// same equalize() call reaches it through per-consumer virtual dispatch:
// one fn⁻¹ solve per job and one TxCurve rebuilt per app per term, the
// loop the curve cache replaced. Both paths evaluate the same utility::
// curve functions, so with consumers ordered jobs, then apps, their
// results are bitwise equal.

#include <vector>

#include "core/consumer.hpp"

namespace heteroplace::bench {

class VirtualOnlyConsumer final : public core::UtilityConsumer {
 public:
  explicit VirtualOnlyConsumer(const core::UtilityConsumer& inner) : inner_(&inner) {}

  [[nodiscard]] double utility_at(util::CpuMhz alloc) const override {
    return inner_->utility_at(alloc);
  }
  [[nodiscard]] util::CpuMhz alloc_for_utility(double u) const override {
    return inner_->alloc_for_utility(u);
  }
  [[nodiscard]] util::CpuMhz demand_max() const override { return inner_->demand_max(); }
  [[nodiscard]] double utility_max() const override { return inner_->utility_max(); }
  [[nodiscard]] core::ConsumerKind kind() const override { return inner_->kind(); }

 private:
  const core::UtilityConsumer* inner_;
};

/// Wrap every consumer of `consumers`; `storage` owns the wrappers.
inline std::vector<const core::UtilityConsumer*> virtual_only(
    const std::vector<const core::UtilityConsumer*>& consumers,
    std::vector<VirtualOnlyConsumer>& storage) {
  storage.clear();
  storage.reserve(consumers.size());
  for (const auto* c : consumers) storage.emplace_back(*c);
  std::vector<const core::UtilityConsumer*> out;
  out.reserve(storage.size());
  for (const auto& w : storage) out.push_back(&w);
  return out;
}

}  // namespace heteroplace::bench
