#pragma once

// Deterministic SLO burn-rate alerting over the SLA ledger.
//
// An SloSpec promises that a fraction `target` of events are good —
// tx-app response-time samples under the app's goal, or batch jobs
// completing within their SLA goal (app == "jobs"). The engine evaluates
// the classic multiwindow burn-rate rule on *sim-time* windows: with
// error budget (1 - target) and windowed error rate err(W),
//
//   burn(W) = err(W) / (1 - target)
//
// an alert opens when burn(long) and burn(short) both reach
// `burn_threshold` (the short window gates on current badness so alerts
// close promptly after recovery) and closes when either drops below it.
//
// Determinism: evaluate() is called only from the serial sampling spine
// with ledgers in fixed domain order, and all state is integer event
// counts — alert instants are byte-identical across engine thread counts.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/sla.hpp"

namespace heteroplace::obs {

class TraceRecorder;
class MetricsRegistry;
class Counter;
class Gauge;

/// One SLO: `app` is a tx-app name or "jobs" (batch-job completions).
struct SloSpec {
  std::string app;
  double target{0.99};          // promised good fraction, in (0, 1)
  double long_window_s{3600};   // sustained-burn window
  double short_window_s{300};   // still-burning gate (<= long window)
  double burn_threshold{1.0};   // open when both window burns reach this

  [[nodiscard]] bool operator==(const SloSpec&) const = default;
};

class AlertEngine {
 public:
  /// Register an SLO. Call all add_slo()s, then bind(), before the run.
  void add_slo(SloSpec spec);

  /// Wire trace/metrics emission (either may be null). Registers the
  /// alerts_total / alerts_active instruments; must be called from a
  /// serial context before the run starts.
  void bind(TraceRecorder* trace, MetricsRegistry* metrics);

  /// Evaluate every SLO at sim time `now` against the cumulative event
  /// counts of `ledgers` (fixed domain order). Serial contexts only.
  void evaluate(double now, const std::vector<const SlaLedger*>& ledgers);

  struct AlertEvent {
    std::string app;
    double opened_s{0.0};
    double closed_s{-1.0};  // -1 = still open at end of run
  };

  [[nodiscard]] const std::vector<AlertEvent>& history() const { return history_; }
  [[nodiscard]] int active() const { return active_; }
  [[nodiscard]] std::vector<SloSpec> slos() const;

 private:
  struct Snapshot {
    double t{0.0};
    std::uint64_t total{0};
    std::uint64_t bad{0};
  };
  struct SloState {
    SloSpec spec;
    // Stable strings backing the trace-event name pointers.
    std::string open_name;
    std::string close_name;
    std::deque<Snapshot> window;
    Counter* opens_metric{nullptr};
    bool open{false};
    std::size_t open_index{0};  // history_ slot of the open alert
  };

  [[nodiscard]] static double window_burn(const SloState& s, double now, double window_s);

  // deque: SloState addresses (and thus open_name.c_str()) stay stable.
  std::deque<SloState> slos_;
  std::vector<AlertEvent> history_;
  TraceRecorder* trace_{nullptr};
  Gauge* active_metric_{nullptr};
  int active_{0};
};

}  // namespace heteroplace::obs
