// System-level property tests: invariants that must hold for ANY battery
// combination, load level, policy setting and seed — the sweeps the unit
// tests cannot cover. Parameterised gtest drives the combinations.
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/core/runtime.h"
#include "src/emu/simulator.h"
#include "src/util/rng.h"

namespace sdb {
namespace {

// Cases are named through an index into kCaseNames, not a `const char*`:
// gtest prints an unprintable parameter's raw bytes into the test name, and a
// pointer's bytes change with every load address, so ctest test names changed
// from one build to the next.
constexpr const char* kCaseNames[] = {"light_rbl",      "light_ccb",      "heavy_rbl",
                                      "heavy_blend",    "asymmetric_soc", "one_near_empty",
                                      "both_low",       "overload"};

struct PropertyCase {
  uint64_t name_index;  // into kCaseNames
  double load_w;
  double directive;
  double soc0;
  double soc1;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  return kCaseNames[info.param.name_index];
}

class SystemPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  void SetUp() override {
    const PropertyCase& param = GetParam();
    std::vector<Cell> cells;
    cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), param.soc0);
    cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), param.soc1);
    micro.emplace(MakeDefaultMicrocontroller(std::move(cells), param.seed));
    runtime.emplace(&*micro);
    runtime->SetDischargingDirective(param.directive);
  }

  std::optional<SdbMicrocontroller> micro;
  std::optional<SdbRuntime> runtime;
};

TEST_P(SystemPropertyTest, EnergyLedgerBalancesAndSocStaysBounded) {
  const PropertyCase& param = GetParam();
  double e0 = micro->pack().TotalRemainingEnergy().value();
  SimConfig sim_config;
  sim_config.tick = Seconds(2.0);
  sim_config.stop_on_shortfall = false;
  Simulator sim(&*runtime, sim_config);
  SimResult result = sim.Run(PowerTrace::Constant(Watts(param.load_w), Hours(1.5)));
  double e1 = micro->pack().TotalRemainingEnergy().value();

  // SoC bounds.
  for (double soc : result.final_soc) {
    EXPECT_GE(soc, 0.0);
    EXPECT_LE(soc, 1.0);
  }
  // Ledger: chemical energy drawn == delivered + losses (2% tolerance for
  // the RC transient and integration).
  double drawn = e0 - e1;
  double accounted = result.delivered.value() + result.TotalLoss().value();
  if (drawn > 1.0) {
    EXPECT_NEAR(drawn, accounted, std::max(1.0, drawn * 0.02)) << kCaseNames[param.name_index];
  }
  // No negative or NaN accounting anywhere.
  EXPECT_GE(result.delivered.value(), 0.0);
  EXPECT_GE(result.battery_loss.value(), -1e-6);
  EXPECT_GE(result.circuit_loss.value(), 0.0);
  EXPECT_TRUE(std::isfinite(result.delivered.value()));
  EXPECT_TRUE(std::isfinite(result.TotalLoss().value()));
}

TEST_P(SystemPropertyTest, ProgrammedRatiosAlwaysValid) {
  const PropertyCase& param = GetParam();
  SimConfig sim_config;
  sim_config.tick = Seconds(5.0);
  sim_config.stop_on_shortfall = false;
  Simulator sim(&*runtime, sim_config);
  sim.Run(PowerTrace::Constant(Watts(param.load_w), Minutes(20.0)));
  const auto& d = runtime->last_discharge_ratios();
  double sum = std::accumulate(d.begin(), d.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  for (double x : d) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SystemPropertyTest,
    ::testing::Values(PropertyCase{0, 2.0, 1.0, 1.0, 1.0, 11},
                      PropertyCase{1, 2.0, 0.0, 1.0, 1.0, 12},
                      PropertyCase{2, 20.0, 1.0, 1.0, 1.0, 13},
                      PropertyCase{3, 20.0, 0.5, 1.0, 1.0, 14},
                      PropertyCase{4, 8.0, 1.0, 0.9, 0.2, 15},
                      PropertyCase{5, 8.0, 1.0, 0.03, 1.0, 16},
                      PropertyCase{6, 12.0, 0.7, 0.15, 0.15, 17},
                      PropertyCase{7, 80.0, 1.0, 1.0, 1.0, 18}),
    CaseName);

// Fuzz: random API command sequences against the microcontroller must never
// crash, corrupt SoC bounds, or accept invalid ratio vectors.
TEST(MicroFuzzTest, RandomCommandSequencesKeepInvariants) {
  Rng rng(2027);
  for (int episode = 0; episode < 12; ++episode) {
    std::vector<Cell> cells;
    cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(3000.0)), rng.NextDouble());
    cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), rng.NextDouble());
    cells.emplace_back(MakeType1PowerCell(MilliAmpHours(1500.0)), rng.NextDouble());
    SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), 500 + episode);

    for (int step = 0; step < 300; ++step) {
      switch (rng.NextBounded(6)) {
        case 0: {
          // Possibly-invalid ratio vector: must either be accepted (valid)
          // or rejected without changing state.
          std::vector<double> ratios = {rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2),
                                        rng.Uniform(-0.2, 1.2)};
          std::vector<double> before = micro.discharge_ratios();
          Status status = micro.SetDischargeRatios(ratios);
          if (!status.ok()) {
            EXPECT_EQ(micro.discharge_ratios(), before);
          }
          break;
        }
        case 1: {
          std::vector<double> ratios(3, 1.0 / 3.0);
          EXPECT_TRUE(micro.SetChargeRatios(ratios).ok());
          break;
        }
        case 2: {
          (void)micro.ChargeOneFromAnother(rng.NextBounded(4), rng.NextBounded(4),
                                           Watts(rng.Uniform(-2.0, 15.0)),
                                           Minutes(rng.Uniform(-1.0, 10.0)));
          break;
        }
        case 3:
          micro.CancelTransfer();
          break;
        case 4: {
          auto statuses = micro.QueryBatteryStatus();
          for (const auto& s : statuses) {
            EXPECT_GE(s.soc, 0.0);
            EXPECT_LE(s.soc, 1.0);
            EXPECT_TRUE(std::isfinite(s.terminal_voltage.value()));
          }
          break;
        }
        default: {
          micro.Step(Watts(rng.Uniform(0.0, 40.0)), Watts(rng.Uniform(0.0, 50.0)),
                     Seconds(rng.Uniform(0.5, 30.0)));
          break;
        }
      }
    }
    for (size_t i = 0; i < micro.battery_count(); ++i) {
      EXPECT_GE(micro.pack().cell(i).soc(), 0.0);
      EXPECT_LE(micro.pack().cell(i).soc(), 1.0);
      EXPECT_GE(micro.pack().cell(i).aging().capacity_factor(), 0.05);
    }
  }
}

// Thermal derating: a hot battery loses its share until it cools.
TEST(ThermalDeratingTest, HotBatteryIsThrottledOut) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 1.0);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 1.0);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), 61);
  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(1.0);

  ASSERT_TRUE(runtime.Update(Watts(8.0), Watts(0.0)).ok());
  double share_cool = runtime.last_discharge_ratios()[0];
  EXPECT_GT(share_cool, 0.3);

  // Overheat battery 0 past the cutoff: its usable current goes to zero.
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(62.0));
  ASSERT_TRUE(runtime.Update(Watts(8.0), Watts(0.0)).ok());
  EXPECT_LT(runtime.last_discharge_ratios()[0], 0.02);

  // Partially hot: throttled but still contributing.
  micro.mutable_pack().cell(0).mutable_thermal().set_temperature(Celsius(50.0));
  ASSERT_TRUE(runtime.Update(Watts(8.0), Watts(0.0)).ok());
  double share_warm = runtime.last_discharge_ratios()[0];
  EXPECT_GT(share_warm, 0.02);
  EXPECT_LT(share_warm, share_cool + 1e-9);

  // Views expose the thermistor reading.
  BatteryViews views = runtime.BuildViews();
  EXPECT_NEAR(ToCelsius(views[0].temperature), 50.0, 0.1);
}

// Three heterogeneous batteries: everything scales past N=2.
TEST(ThreeBatteryTest, PoliciesAndHardwareHandleThreeChemistries) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(3000.0)), 1.0);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 1.0);
  cells.emplace_back(MakeType1PowerCell(MilliAmpHours(1500.0)), 1.0);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), 62);
  SdbRuntime runtime(&micro);
  runtime.SetDischargingDirective(1.0);

  SimConfig sim_config;
  sim_config.tick = Seconds(2.0);
  Simulator sim(&runtime, sim_config);
  SimResult result = sim.Run(PowerTrace::Constant(Watts(12.0), Hours(2.0)));
  EXPECT_FALSE(result.first_shortfall.has_value());
  // All three carried some of the load.
  ASSERT_EQ(runtime.last_discharge_ratios().size(), 3u);
  int contributors = 0;
  for (size_t i = 0; i < 3; ++i) {
    if (micro.pack().cell(i).soc() < 0.999) {
      ++contributors;
    }
  }
  EXPECT_EQ(contributors, 3);
  // And charging refills all three.
  SimResult charge = sim.RunChargeOnly(Watts(40.0), Hours(4.0));
  for (double soc : charge.final_soc) {
    EXPECT_GT(soc, 0.95);
  }
}

}  // namespace
}  // namespace sdb
