#include "src/emu/crash.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "src/chem/library.h"
#include "src/core/checkpoint/rig_codec.h"
#include "src/core/checkpoint/snapshot.h"
#include "src/core/checkpoint/store.h"
#include "src/core/checkpoint/wire.h"
#include "src/core/runtime.h"
#include "src/hw/command_link.h"
#include "src/hw/safety.h"
#include "src/os/predictor.h"
#include "src/os/workload_classifier.h"
#include "src/util/check.h"
#include "src/util/fingerprint.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

#include "src/emu/soak.h"

namespace sdb {

namespace {

constexpr int kCrashBatteries = 4;
constexpr size_t kMaxViolationsPerSchedule = 16;

// Every schedule derives its rig and plans from the schedule seed alone, so
// a report line ("seed 17 diverged") is all that is needed to replay it.
constexpr uint64_t kCrashMicroSalt = 0xC4A5B0075EEDULL;
constexpr uint64_t kCrashPlanSalt = 0xCAA5FF1A55EEDULL;
constexpr uint64_t kTornWriteSalt = 0x70A2217E5EEDULL;

bool SameBits(double a, double b) {
  uint64_t ab;
  uint64_t bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

// Lifecycle doctrine mirrors the fault soak: recovery on, dwell times short
// enough to finish inside the horizon.
RecoveryConfig CrashRecovery() {
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.base_dwell = Minutes(3.0);
  recovery.dwell_backoff = 2.0;
  recovery.max_dwell = Minutes(12.0);
  recovery.probe_duration = Minutes(2.0);
  return recovery;
}

std::vector<Cell> MakeCrashCells() {
  std::vector<Cell> cells;
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeFastChargeTablet(MilliAmpHours(4000.0)), 0.8);
  cells.emplace_back(MakeHighEnergyTablet(MilliAmpHours(4000.0)), 0.8);
  return cells;
}

std::vector<SafetyLimits> MakeCrashLimits(const SdbMicrocontroller& micro) {
  std::vector<SafetyLimits> limits;
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    limits.push_back(DeriveLimits(micro.pack().cell(i).params()));
  }
  return limits;
}

RuntimeConfig MakeCrashRuntimeConfig() {
  RuntimeConfig config;
  config.reintegration_horizon = Minutes(10.0);
  return config;
}

Duration TimeOfDay(Duration now) {
  return Seconds(std::fmod(now.value(), Hours(24.0).value()));
}

// The complete rig a crash schedule plays against. "Process death" destroys
// a CrashRig; warm restart constructs a fresh one from the same config and
// seeds, then restores every component from the snapshot. Heap-held by the
// harness: components point at each other, so the rig never moves.
class CrashRig {
 public:
  CrashRig(uint64_t seed, const FaultPlan& faults)
      : micro(MakeDefaultMicrocontroller(MakeCrashCells(), kCrashMicroSalt ^ seed)),
        safety(MakeCrashLimits(micro), CrashRecovery()),
        server(&micro),
        client([this](const std::vector<uint8_t>& bytes) { return server.Receive(bytes); }),
        runtime(&micro, MakeCrashRuntimeConfig()) {
    micro.AttachSafety(&safety);
    // Install before attaching the injector to the link, mirroring the fault
    // soak: one injector lives for the whole run (SimConfig.faults stays
    // empty, so a warm restart never re-installs a fresh plan over the
    // restored injector clock/RNG).
    if (!faults.events.empty()) {
      micro.InstallFaults(faults);
    }
    client.AttachFaultInjector(micro.fault_injector());
    runtime.AttachLink(&client);
    // A deterministic learned schedule (pure function of the seed) so the
    // predictor hands out real hints whose countdown state rides through
    // checkpoints: three observed days with one recurring high-power hour.
    const int high_hour = static_cast<int>(seed % 24);
    for (int day = 0; day < 3; ++day) {
      std::vector<Power> hours(24, Watts(0.3));
      hours[static_cast<size_t>(high_hour)] = Watts(8.0);
      predictor.ObserveDay(hours);
    }
  }

  CrashRig(const CrashRig&) = delete;
  CrashRig& operator=(const CrashRig&) = delete;

  SdbMicrocontroller micro;
  SafetySupervisor safety;
  CommandLinkServer server;
  CommandLinkClient client;
  SdbRuntime runtime;
  UserSchedulePredictor predictor;
  WorkloadClassifier classifier;
};

// kSectionPredictor payload.
std::vector<uint8_t> EncodePredictorState(const PredictorState& state) {
  checkpoint::ByteWriter writer;
  writer.PutU64(static_cast<uint64_t>(state.days));
  writer.PutU64(state.high_days.size());
  for (int64_t d : state.high_days) {
    writer.PutU64(static_cast<uint64_t>(d));
  }
  writer.PutF64Vector(state.power_sum_w);
  return writer.TakeBytes();
}

StatusOr<PredictorState> DecodePredictorState(const std::vector<uint8_t>& bytes) {
  checkpoint::ByteReader reader(bytes);
  PredictorState state;
  uint64_t days = 0;
  SDB_RETURN_IF_ERROR(reader.ReadU64(&days));
  state.days = static_cast<int64_t>(days);
  uint64_t count = 0;
  SDB_RETURN_IF_ERROR(reader.ReadU64(&count));
  if (count > reader.remaining() / 8) {
    return InvalidArgumentError("checkpoint: predictor hour count exceeds payload");
  }
  state.high_days.resize(static_cast<size_t>(count));
  for (auto& d : state.high_days) {
    uint64_t v = 0;
    SDB_RETURN_IF_ERROR(reader.ReadU64(&v));
    d = static_cast<int64_t>(v);
  }
  SDB_RETURN_IF_ERROR(reader.ReadF64Vector(&state.power_sum_w));
  SDB_RETURN_IF_ERROR(reader.ExpectExhausted());
  return state;
}

// kSectionClassifier payload: the rolling sample window, oldest first.
std::vector<uint8_t> EncodeClassifierState(const std::vector<double>& samples_w) {
  checkpoint::ByteWriter writer;
  writer.PutF64Vector(samples_w);
  return writer.TakeBytes();
}

StatusOr<std::vector<double>> DecodeClassifierState(
    const std::vector<uint8_t>& bytes) {
  checkpoint::ByteReader reader(bytes);
  std::vector<double> samples;
  SDB_RETURN_IF_ERROR(reader.ReadF64Vector(&samples));
  SDB_RETURN_IF_ERROR(reader.ExpectExhausted());
  return samples;
}

// Digest of everything that shapes the rig and the run: a snapshot from a
// different seed, horizon or cadence must be rejected at load, not warmly
// restored into the wrong simulation.
uint64_t ConfigDigest(const CrashConfig& config, uint64_t seed) {
  uint64_t h = MixU64(0, 0x5DBC0F16D16E57ULL);
  h = MixU64(h, seed);
  h = MixU64(h, static_cast<uint64_t>(kCrashBatteries));
  h = MixDouble(h, config.horizon.value());
  h = MixDouble(h, config.tick.value());
  h = MixDouble(h, config.runtime_period.value());
  h = MixDouble(h, config.checkpoint_period.value());
  h = MixDouble(h, config.load.value());
  h = MixU64(h, static_cast<uint64_t>(config.max_faults));
  return h;
}

// Assembles the full-rig snapshot: every section the warm restart needs.
checkpoint::Snapshot SnapshotRig(const CrashRig& rig, const SimLoopState& state) {
  checkpoint::Snapshot snap;
  snap.AddSection(checkpoint::kSectionMicro,
                  checkpoint::EncodeMicroState(rig.micro.SaveState()));
  snap.AddSection(checkpoint::kSectionSafety,
                  checkpoint::EncodeSupervisorState(rig.safety.SaveState()));
  snap.AddSection(checkpoint::kSectionLink,
                  checkpoint::EncodeLinkState(
                      {rig.client.SaveState(), rig.server.SaveState()}));
  snap.AddSection(checkpoint::kSectionRuntime,
                  checkpoint::EncodeRuntimeState(rig.runtime.SaveState()));
  snap.AddSection(checkpoint::kSectionPredictor,
                  EncodePredictorState(rig.predictor.SaveState()));
  snap.AddSection(checkpoint::kSectionClassifier,
                  EncodeClassifierState(rig.classifier.SaveState()));
  snap.AddSection(checkpoint::kSectionSimLoop, EncodeSimLoopState(state));
  return snap;
}

Status MissingSection(const char* name) {
  return InvalidArgumentError(std::string("checkpoint: snapshot is missing the ") +
                              name + " section");
}

// Restores every component of a freshly-built rig from the snapshot, runs
// the boot-count resync handshake and hands back the loop resume point.
// Decodes everything before mutating anything, so a damaged snapshot that
// slipped past the CRC (it cannot, but defense in depth) leaves the rig in
// its freshly-built state.
Status RestoreRig(CrashRig& rig, const checkpoint::Snapshot& snap,
                  RestoreReport* resync_report, SimLoopState* loop) {
  const checkpoint::Section* micro_s = snap.FindSection(checkpoint::kSectionMicro);
  const checkpoint::Section* safety_s = snap.FindSection(checkpoint::kSectionSafety);
  const checkpoint::Section* link_s = snap.FindSection(checkpoint::kSectionLink);
  const checkpoint::Section* runtime_s = snap.FindSection(checkpoint::kSectionRuntime);
  const checkpoint::Section* pred_s = snap.FindSection(checkpoint::kSectionPredictor);
  const checkpoint::Section* class_s = snap.FindSection(checkpoint::kSectionClassifier);
  const checkpoint::Section* loop_s = snap.FindSection(checkpoint::kSectionSimLoop);
  if (micro_s == nullptr) return MissingSection("microcontroller");
  if (safety_s == nullptr) return MissingSection("safety");
  if (link_s == nullptr) return MissingSection("link");
  if (runtime_s == nullptr) return MissingSection("runtime");
  if (pred_s == nullptr) return MissingSection("predictor");
  if (class_s == nullptr) return MissingSection("classifier");
  if (loop_s == nullptr) return MissingSection("sim-loop");

  StatusOr<MicroState> micro_state = checkpoint::DecodeMicroState(micro_s->bytes);
  SDB_RETURN_IF_ERROR(micro_state.status());
  StatusOr<SafetySupervisor::SupervisorState> safety_state =
      checkpoint::DecodeSupervisorState(safety_s->bytes);
  SDB_RETURN_IF_ERROR(safety_state.status());
  StatusOr<checkpoint::LinkState> link_state =
      checkpoint::DecodeLinkState(link_s->bytes);
  SDB_RETURN_IF_ERROR(link_state.status());
  StatusOr<RuntimeState> runtime_state =
      checkpoint::DecodeRuntimeState(runtime_s->bytes);
  SDB_RETURN_IF_ERROR(runtime_state.status());
  StatusOr<PredictorState> pred_state = DecodePredictorState(pred_s->bytes);
  SDB_RETURN_IF_ERROR(pred_state.status());
  StatusOr<std::vector<double>> class_state = DecodeClassifierState(class_s->bytes);
  SDB_RETURN_IF_ERROR(class_state.status());
  StatusOr<SimLoopState> loop_state = DecodeSimLoopState(loop_s->bytes);
  SDB_RETURN_IF_ERROR(loop_state.status());

  // Hardware first: the emulated controller just power-cycled, so after its
  // state is back it must demand the boot-count handshake the runtime's
  // RestoreAndResync completes below.
  SDB_RETURN_IF_ERROR(rig.micro.RestoreState(*micro_state));
  rig.micro.RequireResync();
  SDB_RETURN_IF_ERROR(rig.safety.RestoreState(*safety_state));
  rig.server.RestoreState(link_state->server);
  rig.client.RestoreState(link_state->client);
  SDB_RETURN_IF_ERROR(rig.predictor.RestoreState(*pred_state));
  SDB_RETURN_IF_ERROR(rig.classifier.RestoreState(*class_state));
  StatusOr<RestoreReport> resync = rig.runtime.RestoreAndResync(*runtime_state);
  SDB_RETURN_IF_ERROR(resync.status());
  *resync_report = *resync;
  *loop = std::move(*loop_state);
  return Status::Ok();
}

CrashScheduleReport RunOneCrashSchedule(const CrashConfig& config, uint64_t seed) {
  // Hermetic: never emit into a journal installed by the caller, so an
  // outer process journal cannot depend on work distribution.
  obs::JournalScope silence(nullptr);
  CrashScheduleReport report;
  report.seed = seed;
  FaultPlan faults =
      MakeRandomFaultPlan(seed, kCrashBatteries, config.horizon, config.max_faults);
  CrashPlan crashes = MakeRandomCrashPlan(seed, config.horizon, config.max_crashes);
  report.planned_crashes = static_cast<int>(crashes.events.size());

  auto add_violation = [&](const char* check, std::string detail) {
    SDB_JOURNAL_EVENT(obs::EventKind::kOracleVerdict, -1.0, -1, check, detail);
    if (report.violations.size() >= kMaxViolationsPerSchedule) {
      return;
    }
    report.violations.push_back(CrashViolation{seed, check, std::move(detail)});
  };

  const PowerTrace load = PowerTrace::Constant(config.load, config.horizon);

  // Shared by baseline and crashing runs so both timelines do identical
  // work: feed the classifier every tick, refresh the predictor's workload
  // hint at every replan boundary.
  auto make_sim_config = [&config](CrashRig* rig) {
    SimConfig sim;
    sim.tick = config.tick;
    sim.runtime_period = config.runtime_period;
    sim.stop_on_shortfall = false;
    sim.on_tick = [rig](const MicroTick& tick, Duration) {
      rig->classifier.Observe(Watts(tick.discharge.delivered.value()));
    };
    return sim;
  };
  auto os_clues = [](CrashRig* rig, CrashBarrier barrier, Duration now) {
    if (barrier == CrashBarrier::kPreAllocate) {
      rig->runtime.SetWorkloadHint(rig->predictor.PredictNext(TimeOfDay(now)));
    }
  };

  // The never-crashed twin: same rig, same fault plan, no checkpointing.
  // Saving state is const, so its absence cannot perturb the baseline.
  std::vector<double> baseline_classifier;
  SimResult baseline;
  {
    auto rig = std::make_unique<CrashRig>(seed, faults);
    SimConfig sim_config = make_sim_config(rig.get());
    CrashRig* rig_ptr = rig.get();
    sim_config.on_barrier = [rig_ptr, &os_clues](CrashBarrier barrier, Duration now) {
      os_clues(rig_ptr, barrier, now);
      return true;
    };
    Simulator sim(&rig->runtime, sim_config);
    baseline = sim.Run(load);
    baseline_classifier = rig->classifier.SaveState();
  }

  // The crashing run records into a per-schedule journal; each schedule runs
  // start-to-finish on one worker, so the captured sequence is jobs-invariant.
  obs::EventJournal journal;
  obs::JournalScope journal_scope(&journal);

  // The slot device survives every simulated process death; the rig and the
  // store (in-memory program state) do not.
  checkpoint::MemorySlotDevice device;
  const uint64_t digest = ConfigDigest(config, seed);
  size_t crash_index = 0;
  auto rig = std::make_unique<CrashRig>(seed, faults);
  auto store = std::make_unique<checkpoint::CheckpointStore>(&device, digest);
  bool cold_boot = true;
  SimLoopState resume_state;
  SimResult result;
  std::vector<double> final_classifier;
  for (;;) {
    SimConfig sim_config = make_sim_config(rig.get());
    sim_config.checkpoint_period = config.checkpoint_period;
    CrashRig* rig_ptr = rig.get();
    checkpoint::CheckpointStore* store_ptr = store.get();
    sim_config.on_barrier = [&, rig_ptr](CrashBarrier barrier, Duration now) {
      os_clues(rig_ptr, barrier, now);
      if (crash_index < crashes.events.size()) {
        const CrashEvent& next = crashes.events[crash_index];
        if (next.barrier == barrier && now.value() >= next.time.value()) {
          ++crash_index;
          SDB_JOURNAL_EVENT(obs::EventKind::kSimEvent, now.value(), -1,
                            "crash-injected", std::string(CrashBarrierName(barrier)));
          return false;
        }
      }
      return true;
    };
    sim_config.on_checkpoint = [&, rig_ptr, store_ptr](const SimLoopState& state) {
      bool die = false;
      if (crash_index < crashes.events.size()) {
        const CrashEvent& next = crashes.events[crash_index];
        if (next.barrier == CrashBarrier::kMidCheckpointWrite &&
            state.t.value() >= next.time.value()) {
          die = true;
          if (next.torn != TornWriteKind::kNone) {
            const TornWriteKind torn = next.torn;
            const uint64_t torn_seed = seed ^ kTornWriteSalt ^ crash_index;
            store_ptr->SetWriteMutatorOnce([torn, torn_seed](std::vector<uint8_t>& bytes) {
              ApplyTornWrite(torn, torn_seed, bytes);
            });
            ++report.torn_writes;
          }
          ++crash_index;
          SDB_JOURNAL_EVENT(obs::EventKind::kSimEvent, state.t.value(), -1,
                            "crash-injected",
                            std::string(CrashBarrierName(CrashBarrier::kMidCheckpointWrite)) +
                                (next.torn != TornWriteKind::kNone
                                     ? std::string(":") + std::string(TornWriteKindName(next.torn))
                                     : std::string()));
        }
      }
      Status saved = store_ptr->Save(SnapshotRig(*rig_ptr, state), state.t);
      if (!saved.ok()) {
        add_violation("save", saved.ToString());
      }
      return !die;
    };
    Simulator sim(&rig->runtime, sim_config);
    result = cold_boot ? sim.Run(load) : sim.Resume(resume_state, load);
    if (!result.crashed) {
      final_classifier = rig->classifier.SaveState();
      break;
    }
    ++report.crashes_fired;

    // Process death: rig and store die with the process; only the slot
    // device (the "disk") survives into the next boot.
    rig = std::make_unique<CrashRig>(seed, faults);
    store = std::make_unique<checkpoint::CheckpointStore>(&device, digest);
    StatusOr<checkpoint::LoadResult> loaded = store->LoadLastGood();
    if (!loaded.ok()) {
      // No restorable snapshot (the only writes so far were torn): cold
      // start from scratch. Determinism makes the re-run bit-identical to
      // the original timeline, so the oracle still holds.
      ++report.cold_restarts;
      SDB_JOURNAL_EVENT(obs::EventKind::kCheckpointRestore, -1.0, -1, "cold-start",
                        loaded.status().ToString());
      cold_boot = true;
      continue;
    }
    report.corrupt_slots += loaded->corrupt_slots;
    if (loaded->fell_back) {
      ++report.slot_fallbacks;
    }
    RestoreReport resync;
    Status restored = RestoreRig(*rig, loaded->snapshot, &resync, &resume_state);
    if (!restored.ok()) {
      add_violation("restore", restored.ToString());
      break;
    }
    ++report.warm_restarts;
    report.drift_fields += resync.drift_fields;
    report.resynced = report.resynced || resync.resynced;
    store->AdoptLoaded(*loaded);
    cold_boot = false;
  }

  report.completed =
      result.elapsed.value() >= config.horizon.value() - config.tick.value();
  if (!report.completed) {
    add_violation("incomplete",
                  "final run stopped at " + std::to_string(result.elapsed.value()) + " s");
  }
  std::string divergence = DescribeSimResultDivergence(baseline, result);
  report.identical = divergence.empty();
  if (!report.identical) {
    add_violation("result-divergence", divergence);
  }
  if (final_classifier != baseline_classifier) {
    add_violation("classifier-divergence",
                  "restored classifier window differs from baseline (" +
                      std::to_string(final_classifier.size()) + " vs " +
                      std::to_string(baseline_classifier.size()) + " samples)");
  }
  report.journal = journal.Snapshot();

  uint64_t h = MixU64(0, seed);
  h = MixU64(h, static_cast<uint64_t>(report.planned_crashes));
  h = MixU64(h, static_cast<uint64_t>(report.crashes_fired));
  h = MixU64(h, static_cast<uint64_t>(report.warm_restarts));
  h = MixU64(h, static_cast<uint64_t>(report.cold_restarts));
  h = MixU64(h, static_cast<uint64_t>(report.torn_writes));
  h = MixU64(h, static_cast<uint64_t>(report.corrupt_slots));
  h = MixU64(h, static_cast<uint64_t>(report.slot_fallbacks));
  h = MixU64(h, report.drift_fields);
  h = MixU64(h, report.resynced ? 1 : 0);
  h = MixU64(h, report.completed ? 1 : 0);
  h = MixU64(h, report.identical ? 1 : 0);
  h = MixU64(h, static_cast<uint64_t>(report.violations.size()));
  h = MixDouble(h, result.elapsed.value());
  h = MixDouble(h, result.delivered.value());
  h = MixDouble(h, result.battery_loss.value());
  h = MixDouble(h, result.circuit_loss.value());
  h = MixDouble(h, result.charged.value());
  h = MixU64(h, static_cast<uint64_t>(result.update_failures));
  for (double soc : result.final_soc) {
    h = MixDouble(h, soc);
  }
  h = MixU64(h, result.events.size());
  h = MixU64(h, result.hourly.size());
  h = MixU64(h, final_classifier.size());
  report.fingerprint = h;
  return report;
}

}  // namespace

void ApplyTornWrite(TornWriteKind kind, uint64_t seed, std::vector<uint8_t>& bytes) {
  if (bytes.empty()) {
    return;
  }
  Rng rng(seed);
  switch (kind) {
    case TornWriteKind::kNone:
      break;
    case TornWriteKind::kTruncate:
      bytes.resize(static_cast<size_t>(rng.NextBounded(bytes.size())));
      break;
    case TornWriteKind::kZeroRange: {
      size_t start = static_cast<size_t>(rng.NextBounded(bytes.size()));
      size_t length =
          1 + static_cast<size_t>(rng.NextBounded(bytes.size() - start));
      std::fill(bytes.begin() + static_cast<ptrdiff_t>(start),
                bytes.begin() + static_cast<ptrdiff_t>(start + length),
                static_cast<uint8_t>(0));
      break;
    }
    case TornWriteKind::kBitFlip: {
      size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
      bytes[pos] = static_cast<uint8_t>(bytes[pos] ^
                                        (1u << rng.NextBounded(8)));
      break;
    }
  }
}

std::string_view TornWriteKindName(TornWriteKind kind) {
  switch (kind) {
    case TornWriteKind::kNone:
      return "none";
    case TornWriteKind::kTruncate:
      return "truncate";
    case TornWriteKind::kZeroRange:
      return "zero-range";
    case TornWriteKind::kBitFlip:
      return "bit-flip";
  }
  return "unknown";
}

CrashPlan MakeRandomCrashPlan(uint64_t seed, Duration horizon, int max_crashes) {
  SDB_CHECK(max_crashes > 0);
  SDB_CHECK(horizon.value() > 0.0);
  Rng rng(seed ^ kCrashPlanSalt);
  CrashPlan plan;
  plan.seed = seed;
  const int count = 1 + static_cast<int>(rng.NextBounded(static_cast<uint64_t>(max_crashes)));
  for (int k = 0; k < count; ++k) {
    CrashEvent event;
    event.time = Seconds(horizon.value() * rng.Uniform(0.05, 0.90));
    switch (rng.NextBounded(3)) {
      case 0:
        event.barrier = CrashBarrier::kPreAllocate;
        break;
      case 1:
        event.barrier = CrashBarrier::kPostAllocate;
        break;
      default:
        event.barrier = CrashBarrier::kMidCheckpointWrite;
        event.torn = static_cast<TornWriteKind>(rng.NextBounded(4));
        break;
    }
    plan.events.push_back(event);
  }
  std::sort(plan.events.begin(), plan.events.end(),
            [](const CrashEvent& a, const CrashEvent& b) {
              if (a.time.value() < b.time.value()) return true;
              if (b.time.value() < a.time.value()) return false;
              return static_cast<int>(a.barrier) < static_cast<int>(b.barrier);
            });
  return plan;
}

CrashReport RunCrashSoak(const CrashConfig& config) {
  SDB_CHECK(config.schedules > 0);
  SDB_CHECK(config.checkpoint_period.value() > 0.0);
  CrashReport report;
  report.schedules.resize(static_cast<size_t>(config.schedules));

  // Index-slot determinism: schedule k writes only slot k and depends on
  // (config, base_seed + k) alone, so any worker count produces the same bytes.
  std::optional<ThreadPool> pool;
  if (config.jobs != 1) {
    pool.emplace(config.jobs);
  }
  std::vector<CrashScheduleReport>& slots = report.schedules;
  const CrashConfig& cfg = config;
  ParallelFor(pool.has_value() ? &*pool : nullptr, config.schedules,
              [&slots, &cfg](int64_t index) {
                slots[static_cast<size_t>(index)] = RunOneCrashSchedule(
                    cfg, cfg.base_seed + static_cast<uint64_t>(index));
              });

  uint64_t h = 0;
  for (const CrashScheduleReport& schedule : report.schedules) {
    report.total_violations += schedule.violations.size();
    h = MixU64(h, schedule.fingerprint);
  }
  report.fingerprint = h;
  return report;
}

StatusOr<std::vector<CorpusCaseResult>> ValidateTornCorpus(
    const std::string& corpus_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(corpus_dir, ec)) {
    return NotFoundError("crash corpus: " + corpus_dir + " is not a directory");
  }
  std::vector<std::string> cases;
  for (fs::directory_iterator it(corpus_dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_directory()) {
      cases.push_back(it->path().filename().string());
    }
  }
  if (ec) {
    return UnavailableError("crash corpus: cannot walk " + corpus_dir + ": " +
                            ec.message());
  }
  if (cases.empty()) {
    return InvalidArgumentError("crash corpus: no case directories in " +
                                corpus_dir);
  }
  std::sort(cases.begin(), cases.end());

  std::vector<CorpusCaseResult> results;
  results.reserve(cases.size());
  for (const std::string& name : cases) {
    CorpusCaseResult result;
    result.name = name;
    checkpoint::FileSlotDevice device(corpus_dir + "/" + name);
    checkpoint::CheckpointStore store(&device, kTornCorpusDigest);
    StatusOr<checkpoint::LoadResult> loaded = store.LoadLastGood();
    if (loaded.ok()) {
      result.recovered = true;
      result.detected = loaded->corrupt_slots > 0;
      for (const checkpoint::SlotDiagnostic& diag : loaded->diagnostics) {
        if (diag.present && !diag.valid) {
          if (!result.detail.empty()) {
            result.detail += "; ";
          }
          result.detail += diag.error;
        }
      }
      if (!result.detected) {
        result.detail = "no slot was rejected (case holds no damage?)";
      }
    } else {
      // Both slots rejected (or unreadable): the damage was detected but the
      // case failed to keep a good alternate — a corpus-integrity failure.
      result.detected = true;
      result.recovered = false;
      result.detail = loaded.status().ToString();
    }
    results.push_back(std::move(result));
  }
  return results;
}

std::vector<uint8_t> EncodeSimLoopState(const SimLoopState& state) {
  checkpoint::ByteWriter writer;
  writer.PutF64(state.t.value());
  writer.PutF64(state.next_replan.value());
  writer.PutF64(state.next_checkpoint.value());
  writer.PutBool(state.transfer_was_active);
  const SimResult& partial = state.partial;
  writer.PutF64(partial.elapsed.value());
  writer.PutBool(partial.first_shortfall.has_value());
  writer.PutF64(partial.first_shortfall.has_value() ? partial.first_shortfall->value()
                                                    : 0.0);
  writer.PutF64(partial.delivered.value());
  writer.PutF64(partial.battery_loss.value());
  writer.PutF64(partial.circuit_loss.value());
  writer.PutF64(partial.charged.value());
  writer.PutF64Vector(partial.final_soc);
  writer.PutU64(partial.depletion_time.size());
  for (const std::optional<Duration>& depletion : partial.depletion_time) {
    writer.PutBool(depletion.has_value());
    writer.PutF64(depletion.has_value() ? depletion->value() : 0.0);
  }
  writer.PutU64(partial.events.size());
  for (const SimEvent& event : partial.events) {
    writer.PutU8(static_cast<uint8_t>(event.kind));
    writer.PutF64(event.time.value());
    writer.PutU64(static_cast<uint64_t>(static_cast<int64_t>(event.battery)));
  }
  writer.PutU64(partial.hourly.size());
  for (const HourlyStats& hour : partial.hourly) {
    writer.PutF64(hour.load_energy.value());
    writer.PutF64(hour.battery_loss.value());
    writer.PutF64(hour.circuit_loss.value());
    writer.PutBool(hour.degraded);
    writer.PutU64(hour.link_retries);
    writer.PutU64(hour.link_failures);
    writer.PutU64(hour.stale_updates);
  }
  writer.PutU64(static_cast<uint64_t>(static_cast<int64_t>(partial.update_failures)));
  return writer.TakeBytes();
}

StatusOr<SimLoopState> DecodeSimLoopState(const std::vector<uint8_t>& bytes) {
  checkpoint::ByteReader reader(bytes);
  SimLoopState state;
  double t = 0.0;
  double next_replan = 0.0;
  double next_checkpoint = 0.0;
  SDB_RETURN_IF_ERROR(reader.ReadF64(&t));
  SDB_RETURN_IF_ERROR(reader.ReadF64(&next_replan));
  SDB_RETURN_IF_ERROR(reader.ReadF64(&next_checkpoint));
  state.t = Seconds(t);
  state.next_replan = Seconds(next_replan);
  state.next_checkpoint = Seconds(next_checkpoint);
  SDB_RETURN_IF_ERROR(reader.ReadBool(&state.transfer_was_active));
  SimResult& partial = state.partial;
  double value = 0.0;
  SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
  partial.elapsed = Seconds(value);
  bool has_shortfall = false;
  SDB_RETURN_IF_ERROR(reader.ReadBool(&has_shortfall));
  SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
  if (has_shortfall) {
    partial.first_shortfall = Seconds(value);
  }
  SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
  partial.delivered = Joules(value);
  SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
  partial.battery_loss = Joules(value);
  SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
  partial.circuit_loss = Joules(value);
  SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
  partial.charged = Joules(value);
  SDB_RETURN_IF_ERROR(reader.ReadF64Vector(&partial.final_soc));
  uint64_t count = 0;
  SDB_RETURN_IF_ERROR(reader.ReadU64(&count));
  if (count > reader.remaining() / 9) {
    return InvalidArgumentError("checkpoint: depletion count exceeds payload");
  }
  partial.depletion_time.assign(static_cast<size_t>(count), std::nullopt);
  for (auto& depletion : partial.depletion_time) {
    bool has = false;
    SDB_RETURN_IF_ERROR(reader.ReadBool(&has));
    SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
    if (has) {
      depletion = Seconds(value);
    }
  }
  SDB_RETURN_IF_ERROR(reader.ReadU64(&count));
  if (count > reader.remaining() / 17) {
    return InvalidArgumentError("checkpoint: event count exceeds payload");
  }
  partial.events.resize(static_cast<size_t>(count));
  for (SimEvent& event : partial.events) {
    uint8_t kind = 0;
    SDB_RETURN_IF_ERROR(reader.ReadU8(&kind));
    if (kind > static_cast<uint8_t>(SimEventKind::kTransferEnded)) {
      return InvalidArgumentError("checkpoint: sim event kind " +
                                  std::to_string(kind) + " out of range");
    }
    event.kind = static_cast<SimEventKind>(kind);
    SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
    event.time = Seconds(value);
    uint64_t battery = 0;
    SDB_RETURN_IF_ERROR(reader.ReadU64(&battery));
    event.battery = static_cast<int>(static_cast<int64_t>(battery));
  }
  SDB_RETURN_IF_ERROR(reader.ReadU64(&count));
  if (count > reader.remaining() / 49) {
    return InvalidArgumentError("checkpoint: hourly count exceeds payload");
  }
  partial.hourly.resize(static_cast<size_t>(count));
  for (HourlyStats& hour : partial.hourly) {
    SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
    hour.load_energy = Joules(value);
    SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
    hour.battery_loss = Joules(value);
    SDB_RETURN_IF_ERROR(reader.ReadF64(&value));
    hour.circuit_loss = Joules(value);
    SDB_RETURN_IF_ERROR(reader.ReadBool(&hour.degraded));
    SDB_RETURN_IF_ERROR(reader.ReadU64(&hour.link_retries));
    SDB_RETURN_IF_ERROR(reader.ReadU64(&hour.link_failures));
    SDB_RETURN_IF_ERROR(reader.ReadU64(&hour.stale_updates));
  }
  uint64_t update_failures = 0;
  SDB_RETURN_IF_ERROR(reader.ReadU64(&update_failures));
  partial.update_failures = static_cast<int>(static_cast<int64_t>(update_failures));
  SDB_RETURN_IF_ERROR(reader.ExpectExhausted());
  return state;
}

std::string DescribeSimResultDivergence(const SimResult& baseline,
                                        const SimResult& restored) {
  if (!SameBits(baseline.elapsed.value(), restored.elapsed.value())) {
    return "elapsed: " + std::to_string(baseline.elapsed.value()) + " vs " +
           std::to_string(restored.elapsed.value());
  }
  if (baseline.first_shortfall.has_value() != restored.first_shortfall.has_value() ||
      (baseline.first_shortfall.has_value() &&
       !SameBits(baseline.first_shortfall->value(), restored.first_shortfall->value()))) {
    return "first_shortfall differs";
  }
  if (!SameBits(baseline.delivered.value(), restored.delivered.value())) {
    return "delivered: " + std::to_string(baseline.delivered.value()) + " vs " +
           std::to_string(restored.delivered.value());
  }
  if (!SameBits(baseline.battery_loss.value(), restored.battery_loss.value())) {
    return "battery_loss: " + std::to_string(baseline.battery_loss.value()) + " vs " +
           std::to_string(restored.battery_loss.value());
  }
  if (!SameBits(baseline.circuit_loss.value(), restored.circuit_loss.value())) {
    return "circuit_loss: " + std::to_string(baseline.circuit_loss.value()) + " vs " +
           std::to_string(restored.circuit_loss.value());
  }
  if (!SameBits(baseline.charged.value(), restored.charged.value())) {
    return "charged: " + std::to_string(baseline.charged.value()) + " vs " +
           std::to_string(restored.charged.value());
  }
  if (baseline.final_soc.size() != restored.final_soc.size()) {
    return "final_soc size differs";
  }
  for (size_t i = 0; i < baseline.final_soc.size(); ++i) {
    if (!SameBits(baseline.final_soc[i], restored.final_soc[i])) {
      return "final_soc[" + std::to_string(i) + "]: " +
             std::to_string(baseline.final_soc[i]) + " vs " +
             std::to_string(restored.final_soc[i]);
    }
  }
  if (baseline.depletion_time.size() != restored.depletion_time.size()) {
    return "depletion_time size differs";
  }
  for (size_t i = 0; i < baseline.depletion_time.size(); ++i) {
    const auto& a = baseline.depletion_time[i];
    const auto& b = restored.depletion_time[i];
    if (a.has_value() != b.has_value() ||
        (a.has_value() && !SameBits(a->value(), b->value()))) {
      return "depletion_time[" + std::to_string(i) + "] differs";
    }
  }
  if (baseline.events.size() != restored.events.size()) {
    return "event count: " + std::to_string(baseline.events.size()) + " vs " +
           std::to_string(restored.events.size());
  }
  for (size_t i = 0; i < baseline.events.size(); ++i) {
    const SimEvent& a = baseline.events[i];
    const SimEvent& b = restored.events[i];
    if (a.kind != b.kind || a.battery != b.battery ||
        !SameBits(a.time.value(), b.time.value())) {
      return "event[" + std::to_string(i) + "] differs";
    }
  }
  if (baseline.hourly.size() != restored.hourly.size()) {
    return "hourly count: " + std::to_string(baseline.hourly.size()) + " vs " +
           std::to_string(restored.hourly.size());
  }
  for (size_t i = 0; i < baseline.hourly.size(); ++i) {
    const HourlyStats& a = baseline.hourly[i];
    const HourlyStats& b = restored.hourly[i];
    if (!SameBits(a.load_energy.value(), b.load_energy.value()) ||
        !SameBits(a.battery_loss.value(), b.battery_loss.value()) ||
        !SameBits(a.circuit_loss.value(), b.circuit_loss.value()) ||
        a.degraded != b.degraded || a.link_retries != b.link_retries ||
        a.link_failures != b.link_failures || a.stale_updates != b.stale_updates) {
      return "hourly[" + std::to_string(i) + "] differs";
    }
  }
  if (baseline.update_failures != restored.update_failures) {
    return "update_failures: " + std::to_string(baseline.update_failures) + " vs " +
           std::to_string(restored.update_failures);
  }
  return std::string();
}

}  // namespace sdb
