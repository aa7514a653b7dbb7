#include "src/chem/cell.h"

#include <gtest/gtest.h>

#include "src/chem/library.h"

namespace sdb {
namespace {

Cell MakeCell(double soc = 1.0) {
  return Cell(MakeType2Standard(MilliAmpHours(3000.0)), soc);
}

TEST(CellTest, InitialState) {
  Cell cell = MakeCell(0.6);
  EXPECT_DOUBLE_EQ(cell.soc(), 0.6);
  EXPECT_FALSE(cell.IsEmpty());
  EXPECT_FALSE(cell.IsFull());
  EXPECT_NEAR(ToMilliAmpHours(cell.EffectiveCapacity()), 3000.0, 1e-6);
  EXPECT_NEAR(ToMilliAmpHours(cell.RemainingCharge()), 1800.0, 1e-6);
}

TEST(CellTest, EmptyAndFullFlags) {
  Cell empty = MakeCell(0.0);
  EXPECT_TRUE(empty.IsEmpty());
  Cell full = MakeCell(1.0);
  EXPECT_TRUE(full.IsFull());
}

TEST(CellTest, RemainingEnergyScalesWithSoc) {
  Cell half = MakeCell(0.5);
  Cell full = MakeCell(1.0);
  EXPECT_GT(full.RemainingEnergy().value(), half.RemainingEnergy().value());
  EXPECT_GT(half.RemainingEnergy().value(), 0.0);
  EXPECT_DOUBLE_EQ(MakeCell(0.0).RemainingEnergy().value(), 0.0);
}

TEST(CellTest, RemainingEnergyApproximatesNominal) {
  Cell full = MakeCell(1.0);
  // Integral of OCV over capacity should be near V_nominal * Q.
  double nominal = full.params().NominalEnergy().value();
  EXPECT_NEAR(full.RemainingEnergy().value(), nominal, nominal * 0.05);
}

TEST(CellTest, DischargeLowersSocAndTracksLoss) {
  Cell cell = MakeCell(1.0);
  StepResult r = cell.StepDischargePower(Watts(5.0), Minutes(10.0));
  EXPECT_LT(cell.soc(), 1.0);
  EXPECT_GT(r.energy_lost.value(), 0.0);
  EXPECT_NEAR(cell.total_loss().value(), r.energy_lost.value(), 1e-9);
}

TEST(CellTest, ChargeRaisesSocAndAgesBattery) {
  Cell cell = MakeCell(0.0);
  // Pump a full 80% dose in: one cycle.
  for (int k = 0; k < 50; ++k) {
    cell.StepChargeCurrent(Amps(2.1), Minutes(14.0));
  }
  EXPECT_GT(cell.soc(), 0.95);
  EXPECT_GE(cell.aging().cycle_count(), 1.0);
}

TEST(CellTest, AgingShrinksEffectiveCapacity) {
  Cell cell = MakeCell(0.0);
  double fresh_cap = cell.EffectiveCapacity().value();
  // Cycle the battery hard a few times.
  for (int cycle = 0; cycle < 20; ++cycle) {
    while (!cell.IsFull()) {
      cell.StepChargeCurrent(cell.params().max_charge_current, Minutes(10.0));
    }
    while (!cell.IsEmpty()) {
      cell.StepDischargeCurrent(cell.params().max_discharge_current, Minutes(10.0));
    }
  }
  EXPECT_LT(cell.EffectiveCapacity().value(), fresh_cap);
  EXPECT_GT(cell.aging().cycle_count(), 10.0);
}

TEST(CellTest, DischargeCurrentClampedToDatasheetLimit) {
  Cell cell = MakeCell(1.0);
  StepResult r = cell.StepDischargeCurrent(Amps(1000.0), Seconds(1.0));
  EXPECT_LE(r.current.value(), cell.params().max_discharge_current.value() + 1e-9);
}

TEST(CellTest, ChargeCurrentClampedToDatasheetLimit) {
  Cell cell = MakeCell(0.2);
  StepResult r = cell.StepChargeCurrent(Amps(1000.0), Seconds(1.0));
  EXPECT_LE(-r.current.value(), cell.params().max_charge_current.value() + 1e-9);
}

// A request that would drain more than the cell holds is clamped to the
// remaining charge (the slow path of the kernel's SoC clamp), and the
// clamped current is what aging and the loss ledger record.
TEST(CellTest, DischargeClampsAtEmpty) {
  Cell cell = MakeCell(0.002);
  StepResult r = cell.StepDischargeCurrent(Amps(1.0), Minutes(1.0));
  EXPECT_TRUE(r.limited);
  EXPECT_DOUBLE_EQ(cell.soc(), 0.0);
  // 0.2% of 3000 mAh over 60 s.
  EXPECT_NEAR(r.current.value(), 0.002 * 3.0 * 3600.0 / 60.0, 1e-9);
  EXPECT_NEAR(cell.aging().total_charge_out().value(), r.current.value() * 60.0, 1e-9);
  EXPECT_DOUBLE_EQ(cell.total_loss().value(), r.energy_lost.value());

  // Once empty, further draws move nothing.
  StepResult again = cell.StepDischargePower(Watts(2.0), Seconds(1.0));
  EXPECT_TRUE(again.limited);
  EXPECT_DOUBLE_EQ(again.current.value(), 0.0);
  EXPECT_DOUBLE_EQ(cell.soc(), 0.0);
}

TEST(CellTest, ChargeClampsAtFull) {
  Cell cell = MakeCell(0.999);
  StepResult r = cell.StepChargeCurrent(Amps(1.0), Minutes(1.0));
  EXPECT_TRUE(r.limited);
  EXPECT_DOUBLE_EQ(cell.soc(), 1.0);
  // 0.1% of 3000 mAh over 60 s, as a (negative) charge current.
  EXPECT_NEAR(r.current.value(), -0.001 * 3.0 * 3600.0 / 60.0, 1e-9);
  EXPECT_NEAR(cell.aging().total_charge_in().value(), -r.current.value() * 60.0, 1e-9);

  StepResult again = cell.StepChargePower(Watts(2.0), Seconds(1.0));
  EXPECT_TRUE(again.limited);
  EXPECT_DOUBLE_EQ(again.current.value(), 0.0);
  EXPECT_DOUBLE_EQ(cell.soc(), 1.0);
}

// Power requests far past the datasheet limits pin the current at the
// limit and flag the step as limited.
TEST(CellTest, PowerStepsClampedToDatasheetLimits) {
  Cell cell = MakeCell(0.5);
  StepResult d = cell.StepDischargePower(Watts(1.0e4), Seconds(1.0));
  EXPECT_TRUE(d.limited);
  EXPECT_LE(d.current.value(), cell.params().max_discharge_current.value());
  EXPECT_GT(d.current.value(), 0.0);

  StepResult c = cell.StepChargePower(Watts(1.0e4), Seconds(1.0));
  EXPECT_TRUE(c.limited);
  EXPECT_DOUBLE_EQ(-c.current.value(), cell.params().max_charge_current.value());
}

TEST(CellTest, MaxDischargePowerPositiveAndBounded) {
  Cell cell = MakeCell(0.8);
  double p_max = cell.MaxDischargePower().value();
  EXPECT_GT(p_max, 0.0);
  double ocv = cell.OpenCircuitVoltage().value();
  EXPECT_LT(p_max, ocv * cell.params().max_discharge_current.value());
}

TEST(CellTest, HeatingUnderSustainedLoad) {
  Cell cell = MakeCell(1.0);
  double t0 = cell.thermal().temperature().value();
  for (int k = 0; k < 600; ++k) {
    cell.StepDischargePower(Watts(10.0), Seconds(1.0));
  }
  EXPECT_GT(cell.thermal().temperature().value(), t0);
}

TEST(CellTest, ColdRaisesResistance) {
  Cell warm = MakeCell(0.8);
  Cell cold = MakeCell(0.8);
  cold.mutable_thermal().set_temperature(Celsius(-5.0));
  // SyncAging runs on the next step; take a no-op-sized discharge step.
  warm.StepDischargeCurrent(Amps(0.0), Seconds(1.0));
  cold.StepDischargeCurrent(Amps(0.0), Seconds(1.0));
  double r_warm = warm.InternalResistance().value();
  double r_cold = cold.InternalResistance().value();
  // 30 K below 25 C at 2%/K: +60%.
  EXPECT_NEAR(r_cold / r_warm, 1.6, 0.01);
}

TEST(CellTest, HeatDoesNotRaiseResistance) {
  Cell hot = MakeCell(0.8);
  hot.mutable_thermal().set_temperature(Celsius(45.0));
  hot.StepDischargeCurrent(Amps(0.0), Seconds(1.0));
  Cell warm = MakeCell(0.8);
  warm.StepDischargeCurrent(Amps(0.0), Seconds(1.0));
  EXPECT_NEAR(hot.InternalResistance().value(), warm.InternalResistance().value(), 1e-9);
}

TEST(CellTest, GetStatusSnapshotsState) {
  Cell cell = MakeCell(0.75);
  CellStatus status = cell.GetStatus();
  EXPECT_EQ(status.name, cell.params().name);
  EXPECT_DOUBLE_EQ(status.soc, 0.75);
  EXPECT_DOUBLE_EQ(status.capacity_factor, 1.0);
  EXPECT_GT(status.open_circuit_voltage.value(), 3.0);
  EXPECT_GT(status.internal_resistance.value(), 0.0);
}

TEST(CellTest, MoveTransfersState) {
  Cell cell = MakeCell(0.4);
  cell.StepDischargePower(Watts(2.0), Minutes(5.0));
  double soc = cell.soc();
  double loss = cell.total_loss().value();
  Cell moved = std::move(cell);
  EXPECT_DOUBLE_EQ(moved.soc(), soc);
  EXPECT_DOUBLE_EQ(moved.total_loss().value(), loss);
  // The moved-to cell keeps functioning.
  moved.StepDischargePower(Watts(2.0), Minutes(1.0));
  EXPECT_LT(moved.soc(), soc);
}

TEST(CellDeathTest, InvalidParamsAbort) {
  BatteryParams bad = MakeType2Standard(MilliAmpHours(3000.0));
  bad.nominal_capacity = Coulombs(-1.0);
  EXPECT_DEATH(Cell(std::move(bad), 0.5), "CHECK failed");
}

// Full discharge at various rates: higher C-rate delivers less total energy
// (the capacity/discharge-rate tension of paper §1).
class DischargeRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(DischargeRateSweep, EnergyDeliveredShrinksWithRate) {
  double c_rate = GetParam();
  Cell cell = MakeCell(1.0);
  Current i = cell.params().CRate(c_rate);
  double delivered = 0.0;
  while (!cell.IsEmpty(1e-3)) {
    StepResult r = cell.StepDischargeCurrent(i, Seconds(10.0));
    delivered += r.energy_at_terminals.value();
    if (r.current.value() <= 0.0) {
      break;
    }
  }
  // Compare against a gentle 0.1C reference discharge.
  Cell ref = MakeCell(1.0);
  Current i_ref = ref.params().CRate(0.1);
  double ref_delivered = 0.0;
  while (!ref.IsEmpty(1e-3)) {
    StepResult r = ref.StepDischargeCurrent(i_ref, Seconds(60.0));
    ref_delivered += r.energy_at_terminals.value();
    if (r.current.value() <= 0.0) {
      break;
    }
  }
  EXPECT_LT(delivered, ref_delivered);
  EXPECT_GT(delivered, 0.8 * ref_delivered);
}

INSTANTIATE_TEST_SUITE_P(Rates, DischargeRateSweep, ::testing::Values(0.5, 1.0, 2.0));

}  // namespace
}  // namespace sdb
