// A complete battery cell: Thevenin electrical model + aging + thermal,
// driven by terminal-level charge/discharge requests. This is the unit the
// SDB hardware multiplexes and the unit the runtime's policies reason about.
#ifndef SRC_CHEM_CELL_H_
#define SRC_CHEM_CELL_H_

#include <memory>
#include <string>

#include "src/chem/aging.h"
#include "src/chem/battery_params.h"
#include "src/chem/soa_kernel.h"
#include "src/chem/thermal.h"
#include "src/chem/thevenin.h"
#include "src/util/units.h"

namespace sdb {

// Snapshot of everything the fuel gauge / runtime can observe about a cell.
struct CellStatus {
  std::string name;
  double soc = 0.0;
  Voltage terminal_voltage;
  Voltage open_circuit_voltage;
  Resistance internal_resistance;
  Charge effective_capacity;
  double capacity_factor = 1.0;
  double cycle_count = 0.0;
  double wear_ratio = 0.0;
  Temperature temperature;
  Energy total_loss;
};

class Cell {
 public:
  // Takes ownership of a copy of the params; `initial_soc` in [0, 1].
  Cell(BatteryParams params, double initial_soc);

  // Movable but not copyable (internal models hold pointers into params_).
  Cell(Cell&& other) noexcept;
  Cell& operator=(Cell&& other) noexcept;
  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  // --- Stepping -------------------------------------------------------------
  // All step functions advance aging and thermal state and return the
  // realised electrical outcome (which may be clamped; see StepResult).

  StepResult StepDischargePower(Power power, Duration dt);

  // Advances idle time: self-discharge leaks SoC and calendar fade shaves
  // capacity, with no terminal current (the shelf/standby path).
  void AdvanceIdle(Duration dt);

  StepResult StepDischargeCurrent(Current current, Duration dt);
  StepResult StepChargePower(Power power, Duration dt);
  StepResult StepChargeCurrent(Current current, Duration dt);

  // --- Observers ------------------------------------------------------------

  double soc() const { return electrical_.soc(); }
  void set_soc(double soc) { electrical_.set_soc(soc); }

  // Current full-charge capacity after fade.
  Charge EffectiveCapacity() const;
  // Remaining extractable charge right now (SoC * effective capacity).
  Charge RemainingCharge() const;
  // Remaining chemical energy, integrating OCV over the remaining SoC range.
  Energy RemainingEnergy() const;

  Voltage OpenCircuitVoltage() const { return electrical_.OpenCircuitVoltage(); }
  // Terminal voltage with no load applied (OCV minus the RC transient).
  Voltage NoLoadVoltage() const { return electrical_.TerminalVoltageAt(Amps(0.0)); }
  Resistance InternalResistance() const { return electrical_.InternalResistance(); }
  double DcirSlope() const { return electrical_.DcirSlope(); }
  Power MaxDischargePower() const;
  Power MaxChargePower() const;

  bool IsEmpty(double threshold = 1e-4) const { return soc() <= threshold; }
  bool IsFull(double threshold = 1.0 - 1e-4) const { return soc() >= threshold; }

  CellStatus GetStatus() const;

  const BatteryParams& params() const { return *params_; }
  const AgingModel& aging() const { return aging_; }
  const ThermalModel& thermal() const { return thermal_; }
  // Fault injection for tests and thermal-derating experiments.
  ThermalModel& mutable_thermal() { return thermal_; }

  // Cumulative resistive losses across the cell's lifetime.
  Energy total_loss() const { return Joules(total_loss_j_); }

  // --- Kernel state (soa_kernel.h) ------------------------------------------
  // The step methods above are a single-lane facade over soa::StepLaneOnce.
  // These hooks copy the kernel's dynamic state out and back in losslessly
  // (the checkpoint codec and bit-exact tests use them).
  soa::LaneState ExportLaneState() const;
  void ImportLaneState(const soa::LaneState& state);

 private:
  // One facade step through the shared kernel (SyncAging + electrical step
  // + accounting, exactly as StepLaneOnce orders them).
  StepResult RunLaneOp(soa::LaneOp op, double magnitude, Duration dt);
  // Re-syncs the electrical model's resistance multiplier from aging.
  void SyncAging();

  std::unique_ptr<BatteryParams> params_;  // Stable address for sub-models.
  TheveninModel electrical_;
  AgingModel aging_;
  ThermalModel thermal_;
  soa::LaneParams lane_params_;  // Curve pointers target *params_ (stable).
  double total_loss_j_ = 0.0;
};

}  // namespace sdb

#endif  // SRC_CHEM_CELL_H_
