// The paper's battery model (Fig. 8a): a Thevenin equivalent circuit with
// four learned quantities — open-circuit potential OCV(SoC), internal
// resistance R0(SoC), concentration resistance R_c and plate capacitance
// C_p. Terminal voltage under load current I (discharge positive):
//
//   V_term = OCV(SoC) - I * R0(SoC) - V_rc
//   dV_rc/dt = (I - V_rc / R_c) / C_p
//
// The model integrates SoC by coulomb counting and supports both
// current-specified and power-specified steps (the latter solves the load
// quadratic; see DESIGN.md §5).
#ifndef SRC_CHEM_THEVENIN_H_
#define SRC_CHEM_THEVENIN_H_

#include "src/chem/battery_params.h"
#include "src/chem/soa_kernel.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

// Outcome of one integration step.
struct StepResult {
  Current current;          // Actual current (discharge positive, charge negative).
  Voltage terminal_voltage; // At end of step.
  Energy energy_at_terminals;  // Delivered to (discharge, +) or absorbed from (charge, -) load.
  Energy energy_chemical;      // Removed from (+) or stored into (-) the chemistry.
  Energy energy_lost;          // Resistive heat (momentarily negative only while the
                               // RC element returns transient stored energy).
  bool limited = false;        // True if the request was clamped (empty/full/over-power).
};

// Wraps a kernel-layer result in the typed StepResult the rest of the repo
// consumes. Pure re-labelling; the doubles pass through untouched.
inline StepResult ToStepResult(const soa::RawStepResult& raw) {
  StepResult result;
  result.current = Amps(raw.current_a);
  result.terminal_voltage = Volts(raw.terminal_v);
  result.energy_at_terminals = Joules(raw.energy_terminals_j);
  result.energy_chemical = Joules(raw.energy_chemical_j);
  result.energy_lost = Joules(raw.energy_lost_j);
  result.limited = raw.limited;
  return result;
}

// Dynamic electrical state of one cell. Aging is layered on top by
// sdb::Cell; this class treats capacity as externally supplied so the same
// solver serves both fresh and degraded cells. The step methods are a
// single-lane facade over the soa kernel primitives (soa_kernel.h), so this
// class and the Cell facade produce bit-identical state.
class TheveninModel {
 public:
  // `params` must outlive the model and be valid (see BatteryParams::Validate).
  TheveninModel(const BatteryParams* params, double initial_soc);

  // State of charge in [0, 1].
  double soc() const { return state_.soc; }
  void set_soc(double soc);

  // Multiplier (>= 1) applied to the fresh DCIR curve; set by the aging
  // layer as capacity fades.
  double resistance_scale() const { return state_.resistance_scale; }
  void set_resistance_scale(double scale);

  // Voltage across the RC (concentration) element.
  Voltage rc_voltage() const { return Voltage(state_.v_rc_v); }

  Voltage OpenCircuitVoltage() const;
  Resistance InternalResistance() const;

  // d(DCIR)/d(SoC) at the current SoC — the delta_i of the RBL algorithms.
  double DcirSlope() const;

  // Terminal voltage if `current` were applied right now (no state change).
  Voltage TerminalVoltageAt(Current current) const;

  // Maximum instantaneous power the cell can source given OCV, V_rc and R0
  // (the peak of the P(I) parabola), ignoring the current limit.
  Power MaxDischargePower() const;

  // Integrates one step at fixed current. Positive current discharges.
  // The request is clamped when the cell would leave [0,1] SoC; the result
  // reports the realised current/energies. `capacity` is the cell's current
  // (possibly faded) full-charge capacity.
  StepResult StepWithCurrent(Current current, Duration dt, Charge capacity);

  // Integrates one step delivering `power` at the terminals (discharge).
  // Clamps to MaxDischargePower and to the params' discharge current limit.
  StepResult StepWithDischargePower(Power power, Duration dt, Charge capacity);

  // Integrates one step absorbing `power` at the terminals (charge).
  // Clamps to the params' charge current limit and to 100% SoC.
  StepResult StepWithChargePower(Power power, Duration dt, Charge capacity);

  const BatteryParams& params() const { return *params_; }

  // Kernel-state access for the Cell facade and its lane-state export.
  soa::ElectricalState& kernel_state() { return state_; }
  const soa::ElectricalState& kernel_state() const { return state_; }

 private:
  const BatteryParams* params_;
  soa::ElectricalState state_;
};

}  // namespace sdb

#endif  // SRC_CHEM_THEVENIN_H_
