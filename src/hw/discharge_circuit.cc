#include "src/hw/discharge_circuit.h"

#include <algorithm>
#include <cmath>

#include "src/obs/event.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/numeric.h"

namespace sdb {

SdbDischargeCircuit::SdbDischargeCircuit(DischargeCircuitConfig config, uint64_t seed)
    : config_(config), regulator_(config.regulator), rng_(seed) {
  SDB_CHECK(config_.share_error_mid >= 0.0);
  SDB_CHECK(config_.share_error_edge >= config_.share_error_mid);
  SDB_CHECK(config_.power_margin > 0.0 && config_.power_margin <= 1.0);
}

double SdbDischargeCircuit::ShareErrorEnvelope(double setting) const {
  // Cubic rise toward the edges of the setting range (Fig. 6b shape).
  double distance = std::fabs(setting - 0.5) / 0.5;  // 0 mid, 1 at the edges.
  return config_.share_error_mid +
         (config_.share_error_edge - config_.share_error_mid) * distance * distance * distance;
}

Power SdbDischargeCircuit::CircuitLossAt(Power load, Voltage bus) const {
  return regulator_.LossAt(load, bus, RegulatorMode::kBuck);
}

void SdbDischargeCircuit::JournalShortfallEdge(bool shortfall, Power load,
                                               Power delivered) {
  if (shortfall && !shortfall_latched_) {
    SDB_JOURNAL_EVENT(obs::EventKind::kCircuitEvent, -1.0, -1, "discharge-shortfall",
                      std::string(), delivered.value(), load.value());
  }
  shortfall_latched_ = shortfall;
}

Power SdbDischargeCircuit::AvailablePower(const Cell& cell, Duration dt) const {
  if (cell.IsEmpty()) {
    return Watts(0.0);
  }
  double e = cell.NoLoadVoltage().value();
  double r = cell.InternalResistance().value();
  if (e <= 0.0 || r <= 0.0) {
    return Watts(0.0);
  }
  // Current ceiling: datasheet limit, SoC drain limit, and max-power point.
  double i_cap = std::min(cell.params().max_discharge_current.value(),
                          cell.RemainingCharge().value() / dt.value());
  i_cap = std::min(i_cap, e / (2.0 * r));
  double p = (e - r * i_cap) * i_cap;
  return Watts(std::max(0.0, p * config_.power_margin));
}

DischargeTick SdbDischargeCircuit::Step(BatteryPack& pack, const std::vector<double>& shares,
                                        Power load, Duration dt) {
  SDB_TRACE_SPAN("hw", "circuit.discharge_step");
  SDB_CHECK(shares.size() == pack.size());
  const size_t n = pack.size();
  DischargeTick tick;
  tick.requested = load;
  tick.currents.assign(n, Amps(0.0));
  tick.battery_power.assign(n, Watts(0.0));
  tick.realised_shares.assign(n, 0.0);
  tick.circuit_loss = Joules(0.0);
  tick.battery_loss = Joules(0.0);
  tick.delivered = Watts(0.0);
  if (load.value() <= 0.0) {
    JournalShortfallEdge(false, load, Watts(0.0));
    return tick;
  }

  // Bus voltage estimate: mean no-load voltage of non-empty batteries.
  double bus_v = 0.0;
  int live = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!pack.cell(i).IsEmpty() && !pack.IsOpenCircuit(i)) {
      bus_v += pack.cell(i).NoLoadVoltage().value();
      ++live;
    }
  }
  if (live == 0) {
    tick.shortfall = true;
    JournalShortfallEdge(true, load, Watts(0.0));
    return tick;
  }
  bus_v /= live;

  // Gross power the batteries must source: load + conversion loss.
  double circuit_loss_w = CircuitLossAt(load, Volts(bus_v)).value();
  double gross = load.value() + circuit_loss_w;

  // Apply the proportion-setting error and renormalise.
  std::vector<double> realised(n, 0.0);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    SDB_CHECK(shares[i] >= -1e-12);
    double s = std::max(0.0, shares[i]);
    if (s > 0.0) {
      double err = ShareErrorEnvelope(s);
      s *= 1.0 + rng_.Uniform(-err, err);
    }
    realised[i] = s;
    sum += s;
  }
  if (sum <= 0.0) {
    tick.shortfall = true;
    JournalShortfallEdge(true, load, Watts(0.0));
    return tick;
  }
  for (auto& s : realised) {
    s /= sum;
  }

  // Allocate per-battery power with spill-over: clamp to availability and
  // redistribute the excess across unclamped batteries.
  std::vector<double> avail(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    // A disconnected battery offers nothing, and a zero-share battery was
    // deliberately excluded (the safety mask programs 0 to quarantine a
    // battery) — spill-over routes around both.
    avail[i] = (pack.IsOpenCircuit(i) || realised[i] <= 0.0)
                   ? 0.0
                   : AvailablePower(pack.cell(i), dt).value();
  }
  std::vector<double> request(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    request[i] = realised[i] * gross;
  }
  for (int round = 0; round < 8; ++round) {
    double excess = 0.0;
    double headroom = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (request[i] > avail[i]) {
        excess += request[i] - avail[i];
        request[i] = avail[i];
      } else {
        headroom += avail[i] - request[i];
      }
    }
    if (excess <= 1e-12 || headroom <= 1e-12) {
      break;
    }
    double grant = std::min(1.0, headroom > 0.0 ? excess / headroom : 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (request[i] < avail[i]) {
        request[i] += (avail[i] - request[i]) * grant;
      }
    }
  }

  // Step the cells and account energies.
  double terminal_j = 0.0;
  double battery_loss_j = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (request[i] <= 0.0) {
      continue;
    }
    StepResult step = pack.cell(i).StepDischargePower(Watts(request[i]), dt);
    tick.currents[i] = step.current;
    tick.battery_power[i] = Watts(step.energy_at_terminals.value() / dt.value());
    terminal_j += step.energy_at_terminals.value();
    battery_loss_j += step.energy_lost.value();
  }
  double total_terminal_w = terminal_j / dt.value();
  for (size_t i = 0; i < n; ++i) {
    tick.realised_shares[i] =
        total_terminal_w > 0.0 ? tick.battery_power[i].value() / total_terminal_w : 0.0;
  }

  // Conversion loss scales down if the batteries under-delivered.
  double scale = gross > 0.0 ? std::min(1.0, total_terminal_w / gross) : 0.0;
  double actual_circuit_loss_w = circuit_loss_w * scale;
  double delivered_w = std::max(0.0, total_terminal_w - actual_circuit_loss_w);

  tick.delivered = Watts(delivered_w);
  tick.circuit_loss = Joules(actual_circuit_loss_w * dt.value());
  tick.battery_loss = Joules(battery_loss_j);
  tick.shortfall = delivered_w < load.value() * 0.995;
  JournalShortfallEdge(tick.shortfall, load, tick.delivered);
  return tick;
}

DischargeCircuitState SdbDischargeCircuit::SaveState() const {
  DischargeCircuitState state;
  state.rng = rng_.SaveState();
  state.shortfall_latched = shortfall_latched_;
  return state;
}

void SdbDischargeCircuit::RestoreState(const DischargeCircuitState& state) {
  rng_.RestoreState(state.rng);
  shortfall_latched_ = state.shortfall_latched;
}

}  // namespace sdb
