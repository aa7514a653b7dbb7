// Monte-Carlo cell-step accounting: a parallel sweep of a fast-charge
// tablet scenario must tick the process-wide chem step counter, which the
// sweep reports as MonteCarloResult::cell_steps and bench_monte_carlo
// reads for mc_cell_steps_per_s.
#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/chem/soa_kernel.h"
#include "src/core/runtime.h"
#include "src/emu/monte_carlo.h"
#include "src/emu/simulator.h"
#include "src/hw/microcontroller.h"

namespace sdb {
namespace {

// Seed-varied flavour of GoldenResultsTest.FastChargeTablet, shortened to
// one hour per run: empty tablet pack charging on a wall brick that also
// covers a light foreground load.
SimResult FastChargeTabletScenario(uint64_t seed) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.05);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.05);
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(std::move(cells), seed);
  SdbRuntime runtime(&micro);
  runtime.SetChargingDirective(0.8);
  runtime.SetDischargingDirective(0.8);

  SimConfig config;
  config.tick = Seconds(5.0);
  config.runtime_period = Minutes(1.0);
  config.stop_on_shortfall = false;
  Simulator sim(&runtime, config);
  return sim.Run(PowerTrace::Constant(Watts(2.0), Hours(1.0)),
                 PowerTrace::Constant(Watts(30.0), Hours(1.0)));
}

TEST(SoaMonteCarloPinTest, SweepCountsCellSteps) {
  uint64_t before = soa::TotalCellSteps();
  MonteCarloOptions options;
  options.base_seed = 4242;
  options.jobs = 2;
  MonteCarloResult result = RunMonteCarlo(FastChargeTabletScenario, /*runs=*/2, options);
  EXPECT_GT(result.cell_steps, 0u);
  EXPECT_GE(soa::TotalCellSteps() - before, result.cell_steps);
}

}  // namespace
}  // namespace sdb
