// Work budget per simulated tick. Plays short fixed-seed cuts of the three
// tick-benchmark rigs (tickbench/) and checks exact work counts against the
// budgets below:
//   * heap allocations inside SdbMicrocontroller::Step and SdbRuntime::Update;
//   * command-link frames and bytes, counted by this test's own transport;
//   * chem cell steps (soa::TotalCellSteps).
// Counts are exact functions of the seed for a given standard library, so
// unlike a nanosecond figure they hold across machines and gate CI without
// noise. The budgets may only go down: when a change removes work, lower
// the matching budget to the new count in the same change.
//
// This binary replaces the global operator new to count allocations, so it
// stays a binary of its own.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/chem/library.h"
#include "src/chem/soa_kernel.h"
#include "src/core/runtime.h"
#include "src/emu/scenario_pack.h"
#include "src/emu/workload.h"
#include "src/hw/command_link.h"
#include "src/hw/microcontroller.h"
#include "src/hw/safety.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// Out of line, like the deletes below, so the compiler never pairs an
// inlined malloc() or free() with a new- or delete-expression.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sdb {
namespace {

// Work done over one cut.
struct Counts {
  uint64_t step_allocs = 0;    // Inside every SdbMicrocontroller::Step.
  uint64_t update_allocs = 0;  // Inside every SdbRuntime::Update (link included).
  uint64_t link_frames = 0;    // Request + reply frames on the wire.
  uint64_t link_bytes = 0;
  uint64_t cell_steps = 0;     // soa::TotalCellSteps() over the whole cut.
  // What the cut exercised, so a budget never passes on an idle rig.
  int updates = 0;
  int discharge_ticks = 0;
  int charge_ticks = 0;
};

struct Cut {
  ScenarioSpec spec;
  int ticks = 0;
  uint64_t micro_seed = 0;
  bool link = false;    // Runtime reaches the micro through the command link.
  bool safety = false;  // SafetySupervisor with recovery attached.
};

// The rig of tickbench's matching workload, played for `cut.ticks` ticks in
// Simulator::RunLoop's order: re-plan when due, Step, AdvanceTime.
Counts Play(const Cut& cut) {
  const ScenarioSpec& spec = cut.spec;
  SdbMicrocontroller micro = MakeDefaultMicrocontroller(BuildScenarioCells(spec), cut.micro_seed);
  RuntimeConfig config;
  config.directives = spec.directives;
  SdbRuntime runtime(&micro, config);
  std::optional<SafetySupervisor> safety;
  if (cut.safety) {
    std::vector<SafetyLimits> limits;
    for (const BatteryParams& params : spec.batteries) {
      limits.push_back(DeriveLimits(params));
    }
    safety.emplace(std::move(limits), RecoveryConfig{.enabled = true});
    micro.AttachSafety(&*safety);
  }
  Counts counts;
  std::optional<CommandLinkServer> server;
  std::optional<CommandLinkClient> client;
  if (cut.link) {
    server.emplace(&micro);
    client.emplace([&](const std::vector<uint8_t>& request) {
      std::vector<uint8_t> reply = server->Receive(request);
      counts.link_frames += 1 + (reply.empty() ? 0 : 1);
      counts.link_bytes += request.size() + reply.size();
      return reply;
    });
    runtime.AttachLink(&*client);
  }

  const uint64_t cell_steps_before = soa::TotalCellSteps();
  const Duration tick = spec.sim.tick;
  double t = 0.0;
  double next_replan = 0.0;
  for (int k = 0; k < cut.ticks; ++k) {
    Power load = spec.load.Sample(Seconds(t));
    Power supply = spec.supply.Sample(Seconds(t));
    if (t >= next_replan) {
      uint64_t before = g_allocs.load(std::memory_order_relaxed);
      Status status = runtime.Update(load, supply);
      counts.update_allocs += g_allocs.load(std::memory_order_relaxed) - before;
      EXPECT_TRUE(status.ok()) << "t=" << t << ": " << status.message();
      ++counts.updates;
      next_replan = t + spec.sim.runtime_period.value();
    }
    uint64_t before = g_allocs.load(std::memory_order_relaxed);
    MicroTick step = micro.Step(load, supply, tick);
    counts.step_allocs += g_allocs.load(std::memory_order_relaxed) - before;
    runtime.AdvanceTime(tick);
    t += tick.value();
    bool discharged = false;
    bool charged = false;
    for (size_t i = 0; i < micro.battery_count(); ++i) {
      discharged = discharged || step.discharge.currents[i].value() > 0.0;
      charged = charged || step.charge.currents[i].value() < 0.0;
    }
    counts.discharge_ticks += discharged ? 1 : 0;
    counts.charge_ticks += charged ? 1 : 0;
  }
  counts.cell_steps = soa::TotalCellSteps() - cell_steps_before;
  return counts;
}

// Plays the cut twice and returns the second count: the first play pays
// the process's one-time allocations (function-local statics, registries),
// which would otherwise land on whichever test runs first.
Counts PlayWarm(const Cut& cut) {
  (void)Play(cut);
  return Play(cut);
}

ScenarioSpec Expand(const std::string& pack, const PackParams& overrides, uint64_t seed) {
  StatusOr<ScenarioSpec> spec = ExpandScenario(pack, overrides, seed);
  EXPECT_TRUE(spec.ok()) << spec.status().message();
  return std::move(*spec);
}

void ExpectWithinBudget(const Counts& got, const Counts& budget, int ticks) {
  auto per = [](uint64_t n, int calls) { return static_cast<double>(n) / calls; };
  EXPECT_LE(got.step_allocs, budget.step_allocs)
      << per(got.step_allocs, ticks) << " allocations per Step";
  EXPECT_LE(got.update_allocs, budget.update_allocs)
      << per(got.update_allocs, got.updates) << " allocations per Update";
  EXPECT_LE(got.link_frames, budget.link_frames)
      << per(got.link_frames, got.updates) << " frames per Update";
  EXPECT_LE(got.link_bytes, budget.link_bytes)
      << per(got.link_bytes, got.updates) << " bytes per Update";
  EXPECT_LE(got.cell_steps, budget.cell_steps)
      << per(got.cell_steps, ticks) << " cell steps per tick";
  EXPECT_EQ(got.updates, budget.updates);
}

// twoin1-week: 2-cell docking rig at 1 s ticks, 10-minute re-plan. The cut
// is the undocked first hour plus 10 docked minutes, so both circuits run.
TEST(TickBudgetTest, TwoIn1Docking) {
  Cut cut{Expand("twoin1-docking-week", {{"capacity_mah", 8000.0}}, 1), 4200, 2};
  cut.spec.sim.tick = Seconds(1.0);
  Counts got = PlayWarm(cut);
  EXPECT_GT(got.discharge_ticks, 0);
  EXPECT_GT(got.charge_ticks, 0);
  ExpectWithinBudget(got,
                     Counts{.step_allocs = 34800,  // 8.29 per Step.
                            .update_allocs = 272,  // 38.9 per Update.
                            .link_frames = 0,
                            .link_bytes = 0,
                            .cell_steps = 8400,  // 2 per tick.
                            .updates = 7},
                     cut.ticks);
}

// phone-day: 2-cell phone at 0.25 s ticks, 5-minute re-plan, discharge
// only; the cut is the first 15 minutes.
TEST(TickBudgetTest, PhoneDay) {
  Cut cut{Expand("phone-day", {}, 1), 3600, 2};
  cut.spec.sim.tick = Seconds(0.25);
  Counts got = PlayWarm(cut);
  EXPECT_GT(got.discharge_ticks, 0);
  EXPECT_EQ(got.charge_ticks, 0);
  ExpectWithinBudget(got,
                     Counts{.step_allocs = 28800,  // 8 per Step.
                            .update_allocs = 101,  // 33.7 per Update.
                            .link_frames = 0,
                            .link_bytes = 0,
                            .cell_steps = 7200,  // 2 per tick.
                            .updates = 3},
                     cut.ticks);
}

// pack8-link: 8 tablet cells over the command link with a recovering
// safety supervisor, 1 s ticks, 5 s re-plan; 30 minutes on battery then
// docked. The cut is the first 32 minutes, so both circuits run.
TEST(TickBudgetTest, Pack8Link) {
  const Duration horizon = Hours(6.0);
  const Duration phase = Minutes(30.0);
  ScenarioSpec spec;
  spec.pack = "pack8-link";
  spec.seed = 1;
  for (int i = 0; i < 8; ++i) {
    spec.batteries.push_back(i % 2 == 0 ? MakeFastChargeTablet(MilliAmpHours(4000.0))
                                        : MakeHighEnergyTablet(MilliAmpHours(4000.0)));
    spec.initial_soc.push_back(0.6);
  }
  spec.load = MakeBurstyTrace(Watts(12.0), Watts(30.0), 0.3, horizon, Seconds(30.0), 1);
  for (int p = 0; p * phase.value() < horizon.value(); ++p) {
    spec.supply.Append(phase, Watts(p % 2 == 0 ? 0.0 : 45.0));
  }
  spec.sim.tick = Seconds(1.0);
  spec.sim.runtime_period = Seconds(5.0);
  Cut cut{std::move(spec), 1920, 2, /*link=*/true, /*safety=*/true};
  Counts got = PlayWarm(cut);
  EXPECT_GT(got.discharge_ticks, 0);
  EXPECT_GT(got.charge_ticks, 0);
  ExpectWithinBudget(got,
                     Counts{.step_allocs = 15600,    // 8.13 per Step.
                            .update_allocs = 48019,  // 125 per Update.
                            .link_frames = 2304,     // 6 per Update.
                            .link_bytes = 112128,    // 292 per Update.
                            .cell_steps = 15360,     // 8 per tick.
                            .updates = 384},
                     cut.ticks);
}

}  // namespace
}  // namespace sdb
