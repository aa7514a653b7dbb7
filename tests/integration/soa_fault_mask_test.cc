// Fault masking at the chem kernel: a battery that is open-circuit or
// excluded by a thermal trip must carry exactly zero current in both
// circuits, and its cell state must stay bit-for-bit untouched (no charge
// moved, no heat deposited, no aging recorded). Exact `==` is deliberate:
// "untouched" means the kernel never stepped the cell, not that it stepped
// it by a negligible amount.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/chem/cell.h"
#include "src/chem/library.h"
#include "src/chem/pack.h"
#include "src/chem/soa_kernel.h"
#include "src/core/runtime.h"
#include "src/hw/charge_circuit.h"
#include "src/hw/command_link.h"
#include "src/hw/discharge_circuit.h"
#include "src/hw/fault.h"
#include "src/hw/microcontroller.h"
#include "src/hw/safety.h"

namespace sdb {
namespace {

BatteryPack MakeThreeCellPack() {
  BatteryPack pack;
  pack.AddCell(Cell(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.6));
  pack.AddCell(Cell(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.6));
  pack.AddCell(Cell(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.6));
  return pack;
}

void ExpectLaneStateUnchanged(const soa::LaneState& before, const soa::LaneState& after,
                              const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(before.electrical.soc, after.electrical.soc);
  EXPECT_EQ(before.electrical.v_rc_v, after.electrical.v_rc_v);
  EXPECT_EQ(before.aging.capacity_factor, after.aging.capacity_factor);
  EXPECT_EQ(before.aging.total_charge_in_c, after.aging.total_charge_in_c);
  EXPECT_EQ(before.aging.total_charge_out_c, after.aging.total_charge_out_c);
  EXPECT_EQ(before.thermal.temp_k, after.thermal.temp_k);
  EXPECT_EQ(before.thermal.total_heat_j, after.thermal.total_heat_j);
  EXPECT_EQ(before.total_loss_j, after.total_loss_j);
}

TEST(SoaFaultMaskTest, DischargeOpenCircuitLaneCarriesNoCurrent) {
  BatteryPack pack = MakeThreeCellPack();
  pack.SetOpenCircuit(1, true);
  soa::LaneState before = pack.cell(1).ExportLaneState();

  SdbDischargeCircuit circuit(DischargeCircuitConfig{}, 7);
  for (int step = 0; step < 20; ++step) {
    DischargeTick tick =
        circuit.Step(pack, {1.0 / 3, 1.0 / 3, 1.0 / 3}, Watts(6.0), Seconds(1.0));
    // The faulted lane carries exactly zero current; the survivors carry
    // the load.
    EXPECT_EQ(tick.currents[1].value(), 0.0) << "step=" << step;
    EXPECT_GT(tick.currents[0].value(), 0.0);
    EXPECT_GT(tick.currents[2].value(), 0.0);
  }
  ExpectLaneStateUnchanged(before, pack.cell(1).ExportLaneState(), "discharge open-circuit");
}

TEST(SoaFaultMaskTest, ChargeOpenCircuitLaneCarriesNoCurrent) {
  BatteryPack pack = MakeThreeCellPack();
  pack.SetOpenCircuit(2, true);
  soa::LaneState before = pack.cell(2).ExportLaneState();
  std::vector<const BatteryParams*> params{&pack.cell(0).params(), &pack.cell(1).params(),
                                           &pack.cell(2).params()};
  SdbChargeCircuit circuit(ChargeCircuitConfig{}, params, 11);

  for (int step = 0; step < 50; ++step) {
    ChargeTick tick = circuit.Step(pack, {0.4, 0.4, 0.2}, Watts(10.0), Seconds(1.0));
    // The open lane absorbs nothing; the connected cells charge (negative
    // current is charge).
    EXPECT_EQ(tick.currents[2].value(), 0.0) << "step=" << step;
    EXPECT_LT(tick.currents[0].value(), 0.0);
    EXPECT_LT(tick.currents[1].value(), 0.0);
  }
  ExpectLaneStateUnchanged(before, pack.cell(2).ExportLaneState(), "charge open-circuit");
}

// End-to-end: the full fault-matrix rig (microcontroller + safety + serial
// link + runtime) with battery 0 faulted from minute 5 to minute 30. A
// 5 W load runs throughout; a 20 W dock covers it and charges the pack from
// minute 15 to 25, so both circuits run inside the fault window. Every
// tick on which battery 0 is masked — open at the pack, or excluded by the
// runtime's degraded mode — must leave it with zero current in both
// circuits and its cell state untouched, while the other batteries carry
// the load and absorb the charge.
void ExpectMaskedBatteryUntouched(FaultClass kind, double magnitude) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), 97);

  std::vector<SafetyLimits> limits;
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    limits.push_back(DeriveLimits(micro.pack().cell(i).params()));
  }
  SafetySupervisor safety(limits);
  micro.AttachSafety(&safety);

  FaultPlan plan;
  plan.seed = 0x50AFA17u;
  plan.Add(FaultEvent{.kind = kind,
                      .start = Minutes(5.0),
                      .end = Minutes(30.0),
                      .battery = 0,
                      .magnitude = magnitude,
                      .probability = 1.0});
  micro.InstallFaults(std::move(plan));

  CommandLinkServer server(&micro);
  CommandLinkClient client(
      [&server](const std::vector<uint8_t>& bytes) { return server.Receive(bytes); });
  client.AttachFaultInjector(micro.fault_injector());

  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(0.5);
  runtime.AttachLink(&client);

  const Duration tick = Seconds(10.0);
  constexpr int kTicksPerUpdate = 60;  // Re-plan every 10 minutes.
  constexpr int kTicks = 360;          // One hour.
  int masked_discharge_ticks = 0;
  int masked_charge_ticks = 0;
  for (int k = 0; k < kTicks; ++k) {
    const double minute = k * tick.value() / 60.0;
    const Power load = Watts(5.0);
    const Power supply = Watts(minute >= 15.0 && minute < 25.0 ? 20.0 : 0.0);
    if (k % kTicksPerUpdate == 0) {
      Status status = runtime.Update(load, supply);
      EXPECT_TRUE(status.ok()) << "minute=" << minute << ": " << status.message();
    }
    const bool excluded = runtime.excluded_batteries()[0];
    soa::LaneState before = micro.pack().cell(0).ExportLaneState();
    MicroTick step = micro.Step(load, supply, tick);
    runtime.AdvanceTime(tick);
    // The open-circuit flag is synced from the fault plan inside Step.
    if (!excluded && !micro.pack().IsOpenCircuit(0)) {
      continue;
    }
    const std::string context = "minute=" + std::to_string(minute);
    EXPECT_EQ(step.discharge.currents[0].value(), 0.0) << context;
    EXPECT_EQ(step.charge.currents[0].value(), 0.0) << context;
    ExpectLaneStateUnchanged(before, micro.pack().cell(0).ExportLaneState(), context);
    if (step.discharge.currents[1].value() > 0.0) {
      ++masked_discharge_ticks;
    }
    if (step.charge.currents[1].value() < 0.0) {
      ++masked_charge_ticks;
    }
  }
  // The mask engaged while each circuit was running on the other cells.
  EXPECT_GT(masked_discharge_ticks, 0);
  EXPECT_GT(masked_charge_ticks, 0);
}

TEST(SoaFaultMaskTest, EndToEndOpenCircuitBatteryCarriesNoCurrent) {
  ExpectMaskedBatteryUntouched(FaultClass::kOpenCircuit, 0.0);
}

TEST(SoaFaultMaskTest, EndToEndThermalTripBatteryCarriesNoCurrent) {
  ExpectMaskedBatteryUntouched(FaultClass::kThermalTrip, Celsius(70.0).value());
}

}  // namespace
}  // namespace sdb
