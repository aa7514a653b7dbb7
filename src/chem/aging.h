// Battery aging: cycle counting and capacity fade.
//
// Cycle counting follows the paper's §5.1 rule: a cumulative-charge counter
// accumulates charged coulombs; every time it crosses 80% of the *current*
// capacity, the cycle count increments and the counter resets. Each counted
// cycle removes capacity according to a current-stress model calibrated to
// paper Figure 1(b): fade per cycle grows quadratically with the charge
// current relative to a chemistry-specific reference,
//
//   fade(I) = base_fade * (1 + stress * (I / I_ref)^2).
//
// DCIR grows in proportion to lost capacity (ion-blocking cracks raise the
// separator/electrode resistance, paper §2.1).
#ifndef SRC_CHEM_AGING_H_
#define SRC_CHEM_AGING_H_

#include "src/chem/battery_params.h"
#include "src/chem/soa_kernel.h"
#include "src/util/units.h"

namespace sdb {

// Facade over the soa kernel's aging primitives (soa_kernel.h): throughput
// recording delegates to the same inline code soa::StepLaneOnce runs.
class AgingModel {
 public:
  explicit AgingModel(const BatteryParams* params);

  // Records `charge` coulombs pushed into the battery at magnitude `current`.
  // May increment the cycle count (possibly several times for a large dose).
  void RecordCharge(Charge charge, Current current);

  // Discharge throughput is tracked for statistics; under the paper's rule it
  // does not advance the cycle counter directly.
  void RecordDischarge(Charge charge, Current current);

  // Calendar aging: shelf fade for `dt` of elapsed time, independent of
  // throughput.
  void AdvanceCalendar(Duration dt);

  // Fraction of original capacity still available, in (0, 1].
  double capacity_factor() const { return state_.capacity_factor; }

  // Multiplier on the fresh DCIR curve, >= 1.
  double resistance_factor() const {
    return 1.0 + params_->resistance_growth * (1.0 - state_.capacity_factor);
  }

  // Completed charge cycles (paper's cc_i).
  double cycle_count() const { return state_.cycle_count; }

  // Wear ratio lambda_i = cc_i / chi_i (paper §3.3).
  double wear_ratio() const { return state_.cycle_count / params_->rated_cycle_count; }

  // Cumulative charged fraction toward the next cycle increment, in [0, 0.8).
  double partial_cycle_fraction() const;

  // Lifetime throughput statistics (coulombs).
  Charge total_charge_in() const { return Charge(state_.total_charge_in_c); }
  Charge total_charge_out() const { return Charge(state_.total_charge_out_c); }

  // Longevity score as the paper reports it: % of original capacity.
  double longevity_percent() const { return 100.0 * state_.capacity_factor; }

  const BatteryParams& params() const { return *params_; }

  // Kernel-state access for the Cell facade and its lane-state export.
  soa::AgingState& kernel_state() { return state_; }
  const soa::AgingState& kernel_state() const { return state_; }

 private:
  const BatteryParams* params_;
  soa::AgingState state_;
};

}  // namespace sdb

#endif  // SRC_CHEM_AGING_H_
