// Battery packs: collections of cells plus the *traditional* (non-SDB)
// interconnection baselines the paper compares against (§1, §6):
//   * parallel chains — cells share a terminal voltage, currents split
//     inversely with internal resistance, no software control;
//   * series chains — cells carry identical current, voltages add;
//   * either/or switching — exactly one battery powers the load at a time.
// The SDB hardware (src/hw) replaces these with per-cell power ratios.
#ifndef SRC_CHEM_PACK_H_
#define SRC_CHEM_PACK_H_

#include <vector>

#include "src/chem/cell.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace sdb {

// Outcome of a pack-level step.
struct PackStepResult {
  Power delivered;            // Power that reached the load.
  Power requested;            // What the load asked for.
  Energy energy_lost;         // Total resistive loss across cells this step.
  std::vector<Current> cell_currents;
  bool shortfall = false;     // True when the pack could not meet the request.
};

// A set of heterogeneous cells. Connection semantics are supplied by the
// step functions; the container itself is topology-agnostic.
class BatteryPack {
 public:
  BatteryPack() = default;

  void AddCell(Cell cell);

  size_t size() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }
  Cell& cell(size_t i);
  const Cell& cell(size_t i) const;

  // Aggregate observers.
  Charge TotalRemainingCharge() const;
  Energy TotalRemainingEnergy() const;
  Energy TotalLoss() const;
  bool AllEmpty(double threshold = 1e-4) const;
  bool AllFull(double threshold = 1.0 - 1e-4) const;

  // Open-circuit dropout (fault injection): an open battery is electrically
  // disconnected — it neither sources nor accepts power — until the flag
  // clears. The hw layer drives these from its FaultInjector; chem stays
  // free of hw dependencies by holding plain flags.
  void SetOpenCircuit(size_t i, bool open);
  bool IsOpenCircuit(size_t i) const;
  bool AnyOpenCircuit() const;

  // --- Traditional interconnect baselines -----------------------------------

  // Parallel chain: solves the shared terminal voltage V such that the cell
  // currents (OCV_i - V_rc_i - V)/R0_i sum to the load current implied by
  // `power`, then steps every cell at its share. Cells at 0% SoC drop out.
  PackStepResult StepParallelDischarge(Power power, Duration dt);

  // Series chain: one current flows through every cell; the chain voltage is
  // the sum of terminal voltages. Discharge ends when any cell empties.
  PackStepResult StepSeriesDischarge(Power power, Duration dt);

  // Either/or switching: the lowest-index non-empty cell carries the whole
  // load (how pre-SDB multi-battery products behave, §6).
  PackStepResult StepEitherOrDischarge(Power power, Duration dt);

 private:
  std::vector<Cell> cells_;
  std::vector<bool> open_circuit_;
};

}  // namespace sdb

#endif  // SRC_CHEM_PACK_H_
