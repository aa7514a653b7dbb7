#include "src/hw/charge_circuit.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/obs/event.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

namespace {

// Terminal power a battery absorbs when charged at `current`.
double ChargePowerAtCurrent(const Cell& cell, double j) {
  if (j <= 0.0) {
    return 0.0;
  }
  double ocv = cell.OpenCircuitVoltage().value();
  double r0 = cell.InternalResistance().value();
  return (ocv + j * r0) * j;
}

}  // namespace

SdbChargeCircuit::SdbChargeCircuit(ChargeCircuitConfig config,
                                   const std::vector<const BatteryParams*>& params, uint64_t seed)
    : config_(config), regulator_(config.regulator), rng_(seed) {
  SDB_CHECK(!params.empty());
  banks_.reserve(params.size());
  for (const BatteryParams* p : params) {
    SDB_CHECK(p != nullptr);
    banks_.emplace_back(std::vector<ChargeProfile>{MakeStandardProfile(*p),
                                                   MakeGentleProfile(*p),
                                                   MakeStorageProfile(*p)});
  }
}

Status SdbChargeCircuit::SelectProfile(size_t battery, size_t profile_index) {
  if (battery >= banks_.size()) {
    return OutOfRangeError("battery index out of range");
  }
  return banks_[battery].Select(profile_index);
}

const ChargeProfileBank& SdbChargeCircuit::bank(size_t battery) const {
  SDB_CHECK(battery < banks_.size());
  return banks_[battery];
}

double SdbChargeCircuit::SetpointErrorEnvelope(Current setpoint) const {
  double j = std::fabs(setpoint.value());
  double knee = config_.low_current_knee.value();
  if (j >= knee) {
    return config_.setpoint_error_high_current;
  }
  // The sense signal shrinks with the current: error grows toward zero amps.
  double t = knee > 0.0 ? j / knee : 1.0;
  return config_.setpoint_error_low_current -
         (config_.setpoint_error_low_current - config_.setpoint_error_high_current) * t;
}

double SdbChargeCircuit::EfficiencyVsTypical(Current charge_current, Voltage bus) const {
  double p = charge_current.value() * bus.value();
  double eff = regulator_.EfficiencyAt(Watts(p), bus, RegulatorMode::kBuck);
  return std::min(1.0, eff / config_.regulator.typical_efficiency);
}

ChargeTick SdbChargeCircuit::Step(BatteryPack& pack, const std::vector<double>& shares,
                                  Power supply, Duration dt) {
  SDB_TRACE_SPAN("hw", "circuit.charge_step");
  const size_t n = pack.size();
  SDB_CHECK(shares.size() == n);
  SDB_CHECK(n == banks_.size());
  ChargeTick tick;
  tick.supply_offered = supply;
  tick.currents.assign(n, Amps(0.0));
  tick.absorbed = Watts(0.0);
  tick.supply_used = Watts(0.0);
  tick.circuit_loss = Joules(0.0);
  tick.battery_loss = Joules(0.0);
  if (supply.value() <= 0.0) {
    return tick;
  }

  // Per-battery ceiling from the selected charge profile, expressed as
  // supply-side power (battery terminal power + regulator loss).
  std::vector<double> supply_cap(n, 0.0);
  std::vector<double> profile_j(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (pack.IsOpenCircuit(i)) {
      // Disconnected: accepts no charge, and spill-over routes around it.
      continue;
    }
    Cell& cell = pack.cell(i);
    double j = banks_[i].selected().CommandedCurrent(cell).value();
    if (j > 0.0) {
      // Apply the setpoint error (Fig. 6d).
      double err = SetpointErrorEnvelope(Amps(j));
      j *= 1.0 + rng_.Uniform(-err, err);
    }
    profile_j[i] = j;
    double p_batt = ChargePowerAtCurrent(cell, j);
    double bus = cell.OpenCircuitVoltage().value();
    supply_cap[i] =
        p_batt > 0.0 ? regulator_.InputFor(Watts(p_batt), Volts(bus)).value() : 0.0;
    if (shares[i] <= 0.0) {
      // A zero share is a deliberate exclusion (the safety mask programs 0
      // to quarantine a battery): offer spill-over no headroom here.
      supply_cap[i] = 0.0;
    }
  }

  // Proportional split with spill-over to batteries still below their cap.
  std::vector<double> alloc(n, 0.0);
  double sum_shares = 0.0;
  for (double s : shares) {
    SDB_CHECK(s >= -1e-12);
    sum_shares += std::max(0.0, s);
  }
  if (sum_shares <= 0.0) {
    return tick;
  }
  for (size_t i = 0; i < n; ++i) {
    alloc[i] = std::max(0.0, shares[i]) / sum_shares * supply.value();
  }
  for (int round = 0; round < 8; ++round) {
    double excess = 0.0;
    double headroom = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (alloc[i] > supply_cap[i]) {
        excess += alloc[i] - supply_cap[i];
        alloc[i] = supply_cap[i];
      } else {
        headroom += supply_cap[i] - alloc[i];
      }
    }
    if (excess <= 1e-12 || headroom <= 1e-12) {
      break;
    }
    double grant = std::min(1.0, excess / headroom);
    for (size_t i = 0; i < n; ++i) {
      if (alloc[i] < supply_cap[i]) {
        alloc[i] += (supply_cap[i] - alloc[i]) * grant;
      }
    }
  }

  // Convert supply-side power to battery-terminal power. Every cell's bus
  // voltage and fixed-point inversion read only pre-step state of that same
  // cell, so all terminal powers are computed before any cell steps.
  std::vector<double> bus_v(n, 0.0);
  std::vector<double> p_batt(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (alloc[i] <= 0.0) {
      continue;
    }
    Cell& cell = pack.cell(i);
    double bus = cell.OpenCircuitVoltage().value();
    // Invert p + loss(p) = alloc by fixed-point iteration (loss is mild).
    double p = alloc[i] * 0.95;
    for (int k = 0; k < 4; ++k) {
      p = alloc[i] - regulator_.LossAt(Watts(p), Volts(bus)).value();
      p = std::max(0.0, p);
    }
    bus_v[i] = bus;
    p_batt[i] = p;
  }

  double absorbed_j = 0.0;
  double used_w = 0.0;
  double circuit_loss_j = 0.0;
  double battery_loss_j = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (alloc[i] <= 0.0) {
      continue;
    }
    StepResult step = pack.cell(i).StepChargePower(Watts(p_batt[i]), dt);
    double absorbed_w = -step.energy_at_terminals.value() / dt.value();
    if (absorbed_w <= 0.0) {
      continue;
    }
    tick.currents[i] = step.current;
    tick.any_charging = true;
    absorbed_j += absorbed_w * dt.value();
    double loss_w = regulator_.LossAt(Watts(absorbed_w), Volts(bus_v[i])).value();
    // The fixed-point inversion can overshoot the allocation by a hair;
    // never bill more than the supply share actually granted.
    double used_i = std::min(alloc[i], absorbed_w + loss_w);
    used_w += used_i;
    circuit_loss_j += (used_i - absorbed_w) * dt.value();
    battery_loss_j += step.energy_lost.value();
  }
  tick.absorbed = Watts(absorbed_j / dt.value());
  tick.supply_used = Watts(used_w);
  tick.circuit_loss = Joules(circuit_loss_j);
  tick.battery_loss = Joules(battery_loss_j);
  return tick;
}

TransferTick SdbChargeCircuit::StepTransfer(BatteryPack& pack, size_t from, size_t to,
                                            Power power, Duration dt) {
  SDB_TRACE_SPAN("hw", "circuit.transfer_step");
  SDB_CHECK(from < pack.size());
  SDB_CHECK(to < pack.size());
  SDB_CHECK(from != to);
  TransferTick tick;
  tick.moved = Joules(0.0);
  tick.drawn = Joules(0.0);
  tick.circuit_loss = Joules(0.0);
  tick.battery_loss = Joules(0.0);
  if (power.value() <= 0.0) {
    return tick;
  }
  Cell& src = pack.cell(from);
  Cell& dst = pack.cell(to);
  if (src.IsEmpty() || pack.IsOpenCircuit(from)) {
    tick.source_exhausted = true;
    SDB_JOURNAL_EVENT(obs::EventKind::kCircuitEvent, -1.0, static_cast<int>(from),
                      "transfer-source-exhausted");
    return tick;
  }
  if (dst.IsFull() || pack.IsOpenCircuit(to)) {
    tick.destination_full = true;
    SDB_JOURNAL_EVENT(obs::EventKind::kCircuitEvent, -1.0, static_cast<int>(to),
                      "transfer-destination-full");
    return tick;
  }

  // Both stages see the high-voltage transfer rail, not the cell voltage.
  double src_bus = config_.transfer_rail.value();
  double dst_bus = config_.transfer_rail.value();

  // Source draw capped by its instantaneous capability.
  double w_src = std::min(power.value(), src.MaxDischargePower().value() * 0.98);

  // Two regulator stages: source reverse-buck up to the rail, sink buck down.
  auto dst_power_for = [&](double w) {
    double p_bus = w - regulator_.LossAt(Watts(w), Volts(src_bus),
                                         RegulatorMode::kReverseBuck).value();
    p_bus = std::max(0.0, p_bus);
    double p_dst = p_bus - regulator_.LossAt(Watts(p_bus), Volts(dst_bus)).value();
    return std::max(0.0, p_dst);
  };
  double p_dst = dst_power_for(w_src);

  // Destination profile ceiling.
  double j_cmd = banks_[to].selected().CommandedCurrent(dst).value();
  double p_prof = ChargePowerAtCurrent(dst, j_cmd);
  if (p_prof <= 0.0) {
    tick.destination_full = true;
    SDB_JOURNAL_EVENT(obs::EventKind::kCircuitEvent, -1.0, static_cast<int>(to),
                      "transfer-destination-full");
    return tick;
  }
  if (p_dst > p_prof) {
    // Scale the source draw back so the destination stays within profile.
    double scale = p_prof / p_dst;
    w_src *= scale;
    p_dst = dst_power_for(w_src);
  }
  if (w_src <= 0.0 || p_dst <= 0.0) {
    return tick;
  }

  StepResult out = src.StepDischargePower(Watts(w_src), dt);
  double drawn_w = out.energy_at_terminals.value() / dt.value();
  // If the source materially under-delivered (it is running dry), shrink
  // what reaches the destination and end the transfer.
  if (drawn_w < w_src * 0.99) {
    p_dst = dst_power_for(std::max(0.0, drawn_w));
    tick.source_exhausted = true;
    SDB_JOURNAL_EVENT(obs::EventKind::kCircuitEvent, -1.0, static_cast<int>(from),
                      "transfer-source-exhausted", std::string(), drawn_w, w_src);
  }
  StepResult in = dst.StepChargePower(Watts(p_dst), dt);
  double moved_w = -in.energy_at_terminals.value() / dt.value();

  tick.drawn = Joules(drawn_w * dt.value());
  tick.moved = Joules(std::max(0.0, moved_w) * dt.value());
  tick.circuit_loss = Joules(std::max(0.0, (drawn_w - moved_w)) * dt.value());
  tick.battery_loss = out.energy_lost + in.energy_lost;
  if (dst.IsFull()) {
    tick.destination_full = true;
    SDB_JOURNAL_EVENT(obs::EventKind::kCircuitEvent, -1.0, static_cast<int>(to),
                      "transfer-destination-full");
  }
  return tick;
}

ChargeCircuitState SdbChargeCircuit::SaveState() const {
  ChargeCircuitState state;
  state.rng = rng_.SaveState();
  state.selected_profiles.reserve(banks_.size());
  for (const ChargeProfileBank& bank : banks_) {
    state.selected_profiles.push_back(bank.selected_index());
  }
  return state;
}

Status SdbChargeCircuit::RestoreState(const ChargeCircuitState& state) {
  if (state.selected_profiles.size() != banks_.size()) {
    return InvalidArgumentError("charge circuit: snapshot has " +
                                std::to_string(state.selected_profiles.size()) +
                                " profile selections for " +
                                std::to_string(banks_.size()) + " batteries");
  }
  for (size_t i = 0; i < banks_.size(); ++i) {
    SDB_RETURN_IF_ERROR(
        banks_[i].Select(static_cast<size_t>(state.selected_profiles[i])));
  }
  rng_.RestoreState(state.rng);
  return Status::Ok();
}

}  // namespace sdb
