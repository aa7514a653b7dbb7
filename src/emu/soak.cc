#include "src/emu/soak.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <optional>

#include "src/chem/library.h"
#include "src/core/runtime.h"
#include "src/emu/simulator.h"
#include "src/hw/command_link.h"
#include "src/hw/safety.h"
#include "src/util/fingerprint.h"
#include "src/util/thread_pool.h"

namespace sdb {

namespace {

constexpr int kSoakBatteries = 4;
constexpr size_t kMaxViolationsPerSchedule = 16;

// Every schedule derives its rig seeds from the schedule seed alone, so a
// report line ("seed 17 violated X") is all that is needed to replay it.
constexpr uint64_t kMicroSeedSalt = 0x50AB0B5EEDULL;

float ReadF32(const uint8_t* data) {
  float value;
  std::memcpy(&value, data, sizeof(value));
  return value;
}

bool IsLinkWide(FaultClass kind) {
  return kind == FaultClass::kLinkTimeout || kind == FaultClass::kLinkCorruptReply ||
         kind == FaultClass::kMicroCrash || kind == FaultClass::kMicroBrownout;
}

// Lifecycle doctrine for the soak rig: recovery on, with dwell times short
// enough that a trip near the last fault window still completes its
// cool-down + probe inside the remaining horizon.
RecoveryConfig SoakRecovery() {
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.base_dwell = Minutes(3.0);
  recovery.dwell_backoff = 2.0;
  recovery.max_dwell = Minutes(12.0);
  recovery.probe_duration = Minutes(2.0);
  return recovery;
}

// Everything one rig run produces, copied out before the rig is torn down.
struct RigOutcome {
  bool completed = false;
  std::vector<double> final_shares;
  std::vector<double> final_soc;
  Energy delivered;
  bool recovered = false;
  uint64_t trips = 0;
  uint64_t recoveries = 0;
  uint64_t reboots = 0;
  uint64_t resyncs = 0;
  uint64_t replayed_commands = 0;
};

// Builds the 4-battery tablet rig (recovery-enabled supervisor + command
// link + ramping runtime), plays the constant load for the horizon and —
// when `report` is given — checks the per-tick invariants and the energy
// ledger, recording breaches. `plan == nullptr` runs the never-faulted
// baseline on the identical rig.
RigOutcome RunRig(const SoakConfig& config, uint64_t seed, const FaultPlan* plan,
                  SoakScheduleReport* report) {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.8);
  SdbMicrocontroller micro =
      MakeDefaultMicrocontroller(std::move(cells), kMicroSeedSalt ^ seed);

  std::vector<SafetyLimits> limits;
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    limits.push_back(DeriveLimits(micro.pack().cell(i).params()));
  }
  SafetySupervisor safety(limits, SoakRecovery());
  micro.AttachSafety(&safety);

  // Install before wiring the link so the client can attach the injector
  // that lives for the whole run (SimConfig.faults stays empty).
  if (plan != nullptr) {
    micro.InstallFaults(*plan);
  }

  Duration sim_now = Seconds(0.0);
  SdbRuntime* runtime_ptr = nullptr;  // Filled in once the runtime exists.
  auto add_violation = [&](Duration at, const char* tag, std::string detail) {
    if (report == nullptr) {
      return;
    }
    // Every breach lands in the journal (the ring out-sizes the violation
    // cap, so dropped violations stay visible in a post-mortem bundle).
    SDB_JOURNAL_EVENT(obs::EventKind::kOracleVerdict, at.value(), -1, tag, detail);
    if (report->violations.size() >= kMaxViolationsPerSchedule) {
      ++report->violations_dropped;
      return;
    }
    report->violations.push_back(SoakViolation{seed, at, tag, std::move(detail)});
  };

  CommandLinkServer server(&micro);
  FrameDecoder audit_decoder;
  CommandLinkClient client([&](const std::vector<uint8_t>& bytes) {
    // Invariant 3, audited at the wire: a ratio-programming frame must
    // carry a (near-)zero share for every battery the runtime has
    // quarantined at the moment the frame is sent.
    if (report != nullptr && runtime_ptr != nullptr) {
      std::vector<Frame> frames;
      audit_decoder.Feed(bytes, frames);
      for (const Frame& frame : frames) {
        if (frame.type != MessageType::kSetDischargeRatios &&
            frame.type != MessageType::kSetChargeRatios) {
          continue;
        }
        const std::vector<bool>& excluded = runtime_ptr->excluded_batteries();
        // Mutating payloads carry a 2-byte sequence prefix before the f32s.
        for (size_t i = 0; 2 + (i + 1) * 4 <= frame.payload.size(); ++i) {
          if (i < excluded.size() && excluded[i] &&
              ReadF32(frame.payload.data() + 2 + i * 4) > 1e-6f) {
            add_violation(sim_now, "quarantine-share",
                          "battery " + std::to_string(i) +
                              " excluded but programmed share " +
                              std::to_string(ReadF32(frame.payload.data() + 2 + i * 4)));
          }
        }
      }
    }
    return server.Receive(bytes);
  });
  client.AttachFaultInjector(micro.fault_injector());

  RuntimeConfig runtime_config;
  runtime_config.reintegration_horizon = Minutes(10.0);
  SdbRuntime runtime(&micro, runtime_config);
  runtime.AttachLink(&client);
  runtime_ptr = &runtime;

  // Per-tick invariant state.
  std::vector<bool> prev_faulted(micro.battery_count(), false);
  std::vector<double> prev_cycles(micro.battery_count(), 0.0);
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    prev_cycles[i] = micro.pack().cell(i).aging().cycle_count();
  }

  SimConfig sim_config;
  sim_config.tick = config.tick;
  sim_config.runtime_period = config.runtime_period;
  sim_config.stop_on_shortfall = false;
  sim_config.on_tick = [&](const MicroTick& tick, Duration now) {
    sim_now = now;
    if (report == nullptr) {
      return;
    }
    for (size_t i = 0; i < micro.battery_count(); ++i) {
      const Cell& cell = micro.pack().cell(i);
      // Invariant 1: ground-truth SoC stays finite and in [0, 1].
      double soc = cell.soc();
      if (!std::isfinite(soc) || soc < 0.0 || soc > 1.0) {
        add_violation(now, "soc-range",
                      "battery " + std::to_string(i) + " soc " + std::to_string(soc));
      }
      // Invariant 4: cycle counts never run backwards.
      double cycles = cell.aging().cycle_count();
      if (cycles + 1e-12 < prev_cycles[i]) {
        add_violation(now, "cycle-monotone",
                      "battery " + std::to_string(i) + " cycles " +
                          std::to_string(cycles) + " < " + std::to_string(prev_cycles[i]));
      }
      prev_cycles[i] = cycles;
      // Invariant 2: a battery that entered this tick safety-faulted must
      // have been masked out of both circuits.
      if (prev_faulted[i]) {
        double discharge_a = i < tick.discharge.currents.size()
                                 ? std::fabs(tick.discharge.currents[i].value())
                                 : 0.0;
        double charge_a = i < tick.charge.currents.size()
                              ? std::fabs(tick.charge.currents[i].value())
                              : 0.0;
        if (discharge_a > 1e-9 || charge_a > 1e-9) {
          add_violation(now, "faulted-current",
                        "battery " + std::to_string(i) + " carried " +
                            std::to_string(std::max(discharge_a, charge_a)) +
                            " A while faulted");
        }
      }
      prev_faulted[i] = safety.IsFaulted(i);
    }
  };

  double e0 = micro.pack().TotalRemainingEnergy().value();
  Simulator sim(&runtime, sim_config);
  SimResult result = sim.Run(PowerTrace::Constant(config.load, config.horizon));
  double e1 = micro.pack().TotalRemainingEnergy().value();

  RigOutcome outcome;
  outcome.completed =
      result.elapsed.value() >= config.horizon.value() - config.tick.value();
  if (!outcome.completed) {
    add_violation(result.elapsed, "incomplete",
                  "run stopped at " + std::to_string(result.elapsed.value()) + " s");
  }

  // Invariant 5: the energy ledger balances over the whole run.
  if (report != nullptr) {
    double drawn = e0 - e1;
    double accounted = result.delivered.value() + result.TotalLoss().value();
    double tolerance = std::max(2.0, drawn * config.energy_tolerance_fraction);
    if (!std::isfinite(accounted) || std::fabs(drawn - accounted) > tolerance) {
      add_violation(result.elapsed, "ledger",
                    "drawn " + std::to_string(drawn) + " J vs accounted " +
                        std::to_string(accounted) + " J");
    }
  }

  outcome.final_shares = runtime.last_discharge_ratios();
  outcome.final_soc = result.final_soc;
  outcome.delivered = result.delivered;
  outcome.recovered = !safety.AnyUnhealthy() && !runtime.degraded() &&
                      !micro.awaiting_resync() && !micro.in_reset();
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    outcome.trips += safety.trip_count(i);
    outcome.recoveries += safety.recovery_count(i);
  }
  if (micro.fault_injector() != nullptr) {
    outcome.reboots = micro.fault_injector()->micro_reboots();
  }
  outcome.resyncs = runtime.resilience().resyncs;
  outcome.replayed_commands = server.replayed_commands();
  return outcome;
}

SoakScheduleReport RunOneSchedule(const SoakConfig& config, uint64_t seed) {
  // Hermetic: the schedule never emits into a journal installed by the
  // caller (the --flight-out process journal when a slot runs inline), so
  // what an outer journal holds cannot depend on work distribution.
  obs::JournalScope silence(nullptr);
  SoakScheduleReport report;
  report.seed = seed;
  FaultPlan plan =
      MakeRandomFaultPlan(seed, kSoakBatteries, config.horizon, config.max_events);
  report.events = static_cast<int>(plan.events.size());

  // The never-faulted twin of the same rig gives the steady-state
  // allocation the faulted run must converge back to (invariant 6).
  RigOutcome baseline = RunRig(config, seed, nullptr, nullptr);
  // The faulted run records into a per-schedule journal; each schedule runs
  // start-to-finish on one worker thread, so the captured event sequence is
  // independent of the --jobs value.
  obs::EventJournal journal;
  obs::JournalScope journal_scope(&journal);
  RigOutcome faulted = RunRig(config, seed, &plan, &report);

  report.completed = faulted.completed;
  report.recovered = faulted.recovered;
  report.trips = faulted.trips;
  report.recoveries = faulted.recoveries;
  report.reboots = faulted.reboots;
  report.resyncs = faulted.resyncs;
  report.replayed_commands = faulted.replayed_commands;

  for (size_t i = 0;
       i < faulted.final_shares.size() && i < baseline.final_shares.size(); ++i) {
    report.max_share_delta =
        std::max(report.max_share_delta,
                 std::fabs(faulted.final_shares[i] - baseline.final_shares[i]));
  }
  if (!faulted.recovered) {
    report.violations.push_back(SoakViolation{
        seed, config.horizon, "no-recovery",
        "supervisor/runtime/controller still unhealthy at end of horizon"});
    SDB_JOURNAL_EVENT(obs::EventKind::kOracleVerdict, config.horizon.value(), -1,
                      "no-recovery", report.violations.back().detail);
  } else if (report.max_share_delta > config.convergence_tolerance) {
    report.violations.push_back(SoakViolation{
        seed, config.horizon, "convergence",
        "max share delta " + std::to_string(report.max_share_delta) + " vs baseline"});
    SDB_JOURNAL_EVENT(obs::EventKind::kOracleVerdict, config.horizon.value(), -1,
                      "convergence", report.violations.back().detail);
  }
  report.journal = journal.Snapshot();

  uint64_t h = MixU64(0, seed);
  h = MixU64(h, static_cast<uint64_t>(report.events));
  h = MixU64(h, report.completed ? 1 : 0);
  h = MixU64(h, report.recovered ? 1 : 0);
  h = MixU64(h, report.trips);
  h = MixU64(h, report.recoveries);
  h = MixU64(h, report.reboots);
  h = MixU64(h, report.resyncs);
  h = MixU64(h, report.replayed_commands);
  h = MixU64(h, static_cast<uint64_t>(report.violations.size()) +
                    report.violations_dropped);
  h = MixDouble(h, report.max_share_delta);
  h = MixDouble(h, faulted.delivered.value());
  for (double soc : faulted.final_soc) {
    h = MixDouble(h, soc);
  }
  for (double share : faulted.final_shares) {
    h = MixDouble(h, share);
  }
  report.fingerprint = h;
  return report;
}

}  // namespace

FaultPlan MakeRandomFaultPlan(uint64_t seed, int batteries, Duration horizon,
                              int max_events) {
  SDB_CHECK(batteries > 0);
  SDB_CHECK(max_events > 0);
  SDB_CHECK(horizon.value() > 0.0);
  // Distinct stream from the injector's (which re-mixes plan.seed itself).
  Rng rng(seed ^ 0x5C4EDD1E5EEDULL);
  const FaultClass kinds[] = {
      FaultClass::kLinkTimeout,       FaultClass::kLinkCorruptReply,
      FaultClass::kGaugeBias,         FaultClass::kGaugeNoise,
      FaultClass::kGaugeStuck,        FaultClass::kRegulatorCollapse,
      FaultClass::kOpenCircuit,       FaultClass::kThermalTrip,
      FaultClass::kMicroCrash,        FaultClass::kMicroBrownout,
  };
  FaultPlan plan;
  plan.seed = seed;
  const int count = 1 + static_cast<int>(rng.NextBounded(max_events));
  for (int k = 0; k < count; ++k) {
    FaultEvent event;
    event.kind = kinds[rng.NextBounded(std::size(kinds))];
    // Every window closes by 70% of the horizon so the recovery lifecycle
    // and the reintegration ramp can finish before the convergence check.
    const double start = horizon.value() * rng.Uniform(0.05, 0.45);
    const double length = horizon.value() * rng.Uniform(0.03, 0.20);
    event.start = Seconds(start);
    event.end = Seconds(std::min(start + length, horizon.value() * 0.7));
    event.battery =
        IsLinkWide(event.kind) ? -1 : static_cast<int>(rng.NextBounded(batteries));
    switch (event.kind) {
      case FaultClass::kGaugeBias:
        event.magnitude = rng.Uniform(-0.3, 0.3);
        break;
      case FaultClass::kGaugeNoise:
        event.magnitude = rng.Uniform(5.0, 25.0);
        break;
      case FaultClass::kRegulatorCollapse:
        event.magnitude = rng.Uniform(0.5, 0.9);
        break;
      case FaultClass::kThermalTrip:
        event.magnitude = Celsius(rng.Uniform(62.0, 75.0)).value();
        break;
      default:
        event.magnitude = 0.0;
        break;
    }
    event.probability = (event.kind == FaultClass::kLinkTimeout ||
                         event.kind == FaultClass::kLinkCorruptReply)
                            ? rng.Uniform(0.3, 1.0)
                            : 1.0;
    plan.Add(event);
  }
  return plan;
}

SoakReport RunSoak(const SoakConfig& config) {
  SDB_CHECK(config.schedules > 0);
  SoakReport report;
  report.schedules.resize(config.schedules);

  // Index-slot determinism: schedule k writes only slot k, and everything
  // inside RunOneSchedule depends on (config, base_seed + k) alone, so any
  // worker count produces the same bytes.
  std::optional<ThreadPool> pool;
  if (config.jobs != 1) {
    pool.emplace(config.jobs);
  }
  std::vector<SoakScheduleReport>& slots = report.schedules;
  const SoakConfig& cfg = config;
  ParallelFor(pool.has_value() ? &*pool : nullptr, config.schedules,
              [&slots, &cfg](int64_t index) {
                slots[index] =
                    RunOneSchedule(cfg, cfg.base_seed + static_cast<uint64_t>(index));
              });

  uint64_t h = 0;
  for (const SoakScheduleReport& schedule : report.schedules) {
    report.total_violations +=
        schedule.violations.size() + schedule.violations_dropped;
    h = MixU64(h, schedule.fingerprint);
  }
  report.fingerprint = h;
  return report;
}

}  // namespace sdb
