#include "src/emu/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "src/core/checkpoint/rig_codec.h"
#include "src/core/checkpoint/snapshot.h"
#include "src/core/checkpoint/store.h"
#include "src/core/runtime.h"
#include "src/emu/simulator.h"
#include "src/emu/soak.h"
#include "src/hw/command_link.h"
#include "src/hw/microcontroller.h"
#include "src/hw/safety.h"
#include "src/util/check.h"
#include "src/util/fingerprint.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace sdb {

namespace {

constexpr size_t kMaxViolationsPerCase = 16;
constexpr uint64_t kSampleSalt = 0xF022BAD5EEDULL;
constexpr uint64_t kFaultSalt = 0xFA17F1A6ULL;
constexpr uint64_t kRigSalt = 0x2165EEDULL;
// The crash/flip/charge-phase dimensions each draw from their own salted
// stream, so sampling them (or disabling them) leaves every pre-existing
// draw — and therefore the shape of historical corpora — untouched.
constexpr uint64_t kCrashSalt = 0xC2A54D175EEDULL;
constexpr uint64_t kFlipSalt = 0xF11BD1CE5EEDULL;
constexpr uint64_t kChargeFaultSalt = 0xC4A26EFA5EEDULL;
constexpr uint64_t kFuzzTornSalt = 0xF0221025EEDULL;

uint64_t HashString(const std::string& s) {
  // FNV-1a; folded into the fingerprint via MixU64.
  uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 0x100000001B3ULL;
  }
  return h;
}

std::string FormatG17(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

bool ParseDouble(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != nullptr && *end == '\0' && !text.empty();
}

bool ParseU64(const std::string& text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !text.empty();
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  parts.push_back(current);
  return parts;
}

const FaultClass kAllFaultClasses[] = {
    FaultClass::kLinkTimeout,       FaultClass::kLinkCorruptReply,
    FaultClass::kGaugeBias,         FaultClass::kGaugeNoise,
    FaultClass::kGaugeStuck,        FaultClass::kRegulatorCollapse,
    FaultClass::kOpenCircuit,       FaultClass::kThermalTrip,
    FaultClass::kMicroCrash,        FaultClass::kMicroBrownout,
};

bool ParseFaultClass(const std::string& name, FaultClass* out) {
  for (FaultClass kind : kAllFaultClasses) {
    if (FaultClassName(kind) == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

bool ParseCrashBarrier(const std::string& name, CrashBarrier* out) {
  for (CrashBarrier barrier :
       {CrashBarrier::kPreAllocate, CrashBarrier::kPostAllocate,
        CrashBarrier::kMidCheckpointWrite}) {
    if (CrashBarrierName(barrier) == name) {
      *out = barrier;
      return true;
    }
  }
  return false;
}

bool ParseTornWriteKind(const std::string& name, TornWriteKind* out) {
  for (TornWriteKind kind : {TornWriteKind::kNone, TornWriteKind::kTruncate,
                             TornWriteKind::kZeroRange, TornWriteKind::kBitFlip}) {
    if (TornWriteKindName(kind) == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

// The fuzz rig's recovery doctrine matches the soak harness: recovery on,
// dwells short enough to complete inside a capped horizon.
RecoveryConfig FuzzRecovery() {
  RecoveryConfig recovery;
  recovery.enabled = true;
  recovery.base_dwell = Minutes(3.0);
  recovery.dwell_backoff = 2.0;
  recovery.max_dwell = Minutes(12.0);
  recovery.probe_duration = Minutes(2.0);
  return recovery;
}

SimConfig CappedSimConfig(const ScenarioSpec& spec, const FuzzConfig& config) {
  SimConfig sim = spec.sim;
  sim.max_duration = Seconds(
      std::min(sim.max_duration.value(), config.horizon_cap.value()));
  sim.stop_on_shortfall = false;
  return sim;
}

// One fault-free policy run of the spec under explicit directives; returns
// the achieved lifetime (first shortfall, or the whole run when the load
// was always served).
Duration PolicyLifetime(const ScenarioSpec& spec, DirectiveParameters directives,
                        const FuzzConfig& config) {
  SdbMicrocontroller micro =
      MakeDefaultMicrocontroller(BuildScenarioCells(spec), spec.seed ^ kRigSalt);
  RuntimeConfig runtime_config;
  runtime_config.directives = directives;
  SdbRuntime runtime(&micro, runtime_config);
  Simulator sim(&runtime, CappedSimConfig(spec, config));
  SimResult result = sim.Run(spec.load, spec.supply);
  return result.first_shortfall.value_or(result.elapsed);
}

std::vector<SafetyLimits> FuzzLimits(const SdbMicrocontroller& micro) {
  std::vector<SafetyLimits> limits;
  for (size_t i = 0; i < micro.battery_count(); ++i) {
    limits.push_back(DeriveLimits(micro.pack().cell(i).params()));
  }
  return limits;
}

RuntimeConfig FuzzRuntimeConfig(const FuzzCase& fuzz_case) {
  RuntimeConfig config;
  config.directives = fuzz_case.directives;
  config.reintegration_horizon = Minutes(10.0);
  return config;
}

// The full rig a fuzz case plays against: microcontroller + supervisor +
// command link + runtime, faults installed before the injector attaches to
// the link. Heap-held by the crash-equivalence oracle, which rebuilds it
// across simulated process deaths — components point at each other, so a
// rig never moves.
struct FuzzRig {
  FuzzRig(const ScenarioSpec& spec, const FuzzCase& fuzz_case)
      : micro(MakeDefaultMicrocontroller(BuildScenarioCells(spec),
                                         spec.seed ^ kRigSalt)),
        safety(FuzzLimits(micro), FuzzRecovery()),
        server(&micro),
        client([this](const std::vector<uint8_t>& bytes) {
          return server.Receive(bytes);
        }),
        runtime(&micro, FuzzRuntimeConfig(fuzz_case)) {
    micro.AttachSafety(&safety);
    if (!fuzz_case.faults.empty()) {
      micro.InstallFaults(fuzz_case.faults);
    }
    client.AttachFaultInjector(micro.fault_injector());
    runtime.AttachLink(&client);
  }

  FuzzRig(const FuzzRig&) = delete;
  FuzzRig& operator=(const FuzzRig&) = delete;

  SdbMicrocontroller micro;
  SafetySupervisor safety;
  CommandLinkServer server;
  CommandLinkClient client;
  SdbRuntime runtime;
};

// Applies every directive flip whose time has passed. Called from on_tick
// by the main run and its crash twin alike, so both play the same policy
// timeline; after a warm restart the cursor is re-derived from the resume
// clock (the flips' effect itself rides in the restored RuntimeState).
void ApplyDueFlips(const FuzzCase& fuzz_case, FuzzRig& rig, Duration now,
                   size_t* cursor) {
  while (*cursor < fuzz_case.flips.size() &&
         fuzz_case.flips[*cursor].time.value() <= now.value()) {
    const DirectiveFlip& flip = fuzz_case.flips[*cursor];
    DirectiveParameters directives;
    directives.discharging = flip.discharging;
    directives.charging = flip.charging;
    rig.runtime.SetDirectives(directives);
    ++(*cursor);
  }
}

// The crash twin checkpoints the core rig sections plus the driver-loop
// state; the os-layer sections the crash soak carries (predictor,
// classifier) have no counterpart in the fuzz rig.
checkpoint::Snapshot SnapshotFuzzRig(const FuzzRig& rig, const SimLoopState& state) {
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
  snap.AddSection(checkpoint::kSectionSimLoop, EncodeSimLoopState(state));
  return snap;
}

Status MissingFuzzSection(const char* name) {
  return InvalidArgumentError(std::string("checkpoint: snapshot is missing the ") +
                              name + " section");
}

// Restores every component of a freshly-built rig from the snapshot and
// completes the boot-count resync handshake. Decodes everything before
// mutating anything, hardware first (mirrors the crash soak's RestoreRig).
Status RestoreFuzzRig(FuzzRig& rig, const checkpoint::Snapshot& snap,
                      SimLoopState* loop) {
  const checkpoint::Section* micro_s = snap.FindSection(checkpoint::kSectionMicro);
  const checkpoint::Section* safety_s = snap.FindSection(checkpoint::kSectionSafety);
  const checkpoint::Section* link_s = snap.FindSection(checkpoint::kSectionLink);
  const checkpoint::Section* runtime_s = snap.FindSection(checkpoint::kSectionRuntime);
  const checkpoint::Section* loop_s = snap.FindSection(checkpoint::kSectionSimLoop);
  if (micro_s == nullptr) return MissingFuzzSection("microcontroller");
  if (safety_s == nullptr) return MissingFuzzSection("safety");
  if (link_s == nullptr) return MissingFuzzSection("link");
  if (runtime_s == nullptr) return MissingFuzzSection("runtime");
  if (loop_s == nullptr) return MissingFuzzSection("sim-loop");

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
  StatusOr<SimLoopState> loop_state = DecodeSimLoopState(loop_s->bytes);
  SDB_RETURN_IF_ERROR(loop_state.status());

  SDB_RETURN_IF_ERROR(rig.micro.RestoreState(*micro_state));
  rig.micro.RequireResync();
  SDB_RETURN_IF_ERROR(rig.safety.RestoreState(*safety_state));
  rig.server.RestoreState(link_state->server);
  rig.client.RestoreState(link_state->client);
  StatusOr<RestoreReport> resync = rig.runtime.RestoreAndResync(*runtime_state);
  SDB_RETURN_IF_ERROR(resync.status());
  *loop = std::move(*loop_state);
  return Status::Ok();
}

}  // namespace

// --- Reproducer lines --------------------------------------------------------

std::string FormatFuzzCase(const FuzzCase& fuzz_case) {
  std::ostringstream os;
  os << "pack=" << fuzz_case.pack << " seed=" << fuzz_case.seed
     << " dch=" << FormatG17(fuzz_case.directives.discharging)
     << " chg=" << FormatG17(fuzz_case.directives.charging);
  for (const auto& [name, value] : fuzz_case.overrides) {
    os << " p:" << name << "=" << FormatG17(value);
  }
  if (!fuzz_case.faults.empty()) {
    os << " fseed=" << fuzz_case.faults.seed;
    for (const FaultEvent& event : fuzz_case.faults.events) {
      os << " fault=" << FaultClassName(event.kind) << ":"
         << FormatG17(event.start.value()) << ":" << FormatG17(event.end.value())
         << ":" << event.battery << ":" << FormatG17(event.magnitude) << ":"
         << FormatG17(event.probability);
    }
  }
  for (const CrashEvent& event : fuzz_case.crashes) {
    os << " crash=" << CrashBarrierName(event.barrier) << ":"
       << TornWriteKindName(event.torn) << ":" << FormatG17(event.time.value());
  }
  for (const DirectiveFlip& flip : fuzz_case.flips) {
    os << " flip=" << FormatG17(flip.time.value()) << ":"
       << FormatG17(flip.discharging) << ":" << FormatG17(flip.charging);
  }
  return os.str();
}

StatusOr<FuzzCase> ParseFuzzCase(const std::string& line) {
  FuzzCase fuzz_case;
  bool saw_pack = false;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("reproducer token without '=': '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "pack") {
      if (value.empty()) {
        return InvalidArgumentError("empty pack name");
      }
      fuzz_case.pack = value;
      saw_pack = true;
    } else if (key == "seed") {
      if (!ParseU64(value, &fuzz_case.seed)) {
        return InvalidArgumentError("bad seed '" + value + "'");
      }
    } else if (key == "dch") {
      if (!ParseDouble(value, &fuzz_case.directives.discharging)) {
        return InvalidArgumentError("bad dch '" + value + "'");
      }
    } else if (key == "chg") {
      if (!ParseDouble(value, &fuzz_case.directives.charging)) {
        return InvalidArgumentError("bad chg '" + value + "'");
      }
    } else if (key == "fseed") {
      if (!ParseU64(value, &fuzz_case.faults.seed)) {
        return InvalidArgumentError("bad fseed '" + value + "'");
      }
    } else if (key.rfind("p:", 0) == 0) {
      double parsed = 0.0;
      if (!ParseDouble(value, &parsed)) {
        return InvalidArgumentError("bad parameter value '" + token + "'");
      }
      fuzz_case.overrides[key.substr(2)] = parsed;
    } else if (key == "fault") {
      const std::vector<std::string> parts = SplitOn(value, ':');
      if (parts.size() != 6) {
        return InvalidArgumentError(
            "fault wants kind:start:end:battery:mag:prob, got '" + value + "'");
      }
      FaultEvent event;
      double start = 0.0;
      double end = 0.0;
      double battery = 0.0;
      if (!ParseFaultClass(parts[0], &event.kind)) {
        return InvalidArgumentError("unknown fault kind '" + parts[0] + "'");
      }
      if (!ParseDouble(parts[1], &start) || !ParseDouble(parts[2], &end) ||
          !ParseDouble(parts[3], &battery) ||
          !ParseDouble(parts[4], &event.magnitude) ||
          !ParseDouble(parts[5], &event.probability)) {
        return InvalidArgumentError("bad fault numbers in '" + value + "'");
      }
      event.start = Seconds(start);
      event.end = Seconds(end);
      event.battery = static_cast<int>(battery);
      fuzz_case.faults.Add(event);
    } else if (key == "crash") {
      const std::vector<std::string> parts = SplitOn(value, ':');
      if (parts.size() != 3) {
        return InvalidArgumentError("crash wants barrier:torn:time, got '" +
                                    value + "'");
      }
      CrashEvent event;
      double time = 0.0;
      if (!ParseCrashBarrier(parts[0], &event.barrier)) {
        return InvalidArgumentError("unknown crash barrier '" + parts[0] + "'");
      }
      if (!ParseTornWriteKind(parts[1], &event.torn)) {
        return InvalidArgumentError("unknown torn-write kind '" + parts[1] + "'");
      }
      if (!ParseDouble(parts[2], &time)) {
        return InvalidArgumentError("bad crash time in '" + value + "'");
      }
      event.time = Seconds(time);
      fuzz_case.crashes.push_back(event);
    } else if (key == "flip") {
      const std::vector<std::string> parts = SplitOn(value, ':');
      if (parts.size() != 3) {
        return InvalidArgumentError("flip wants time:dch:chg, got '" + value +
                                    "'");
      }
      DirectiveFlip flip;
      double time = 0.0;
      if (!ParseDouble(parts[0], &time) ||
          !ParseDouble(parts[1], &flip.discharging) ||
          !ParseDouble(parts[2], &flip.charging)) {
        return InvalidArgumentError("bad flip numbers in '" + value + "'");
      }
      flip.time = Seconds(time);
      fuzz_case.flips.push_back(flip);
    } else {
      return InvalidArgumentError("unknown reproducer key '" + key + "'");
    }
  }
  if (!saw_pack) {
    return InvalidArgumentError("reproducer line has no pack= token");
  }
  return fuzz_case;
}

std::string FormatFuzzCorpus(const std::vector<FuzzCase>& cases) {
  std::ostringstream os;
  os << "# sdb fuzz corpus: one reproducer per line (sdbsim fuzz --replay)\n";
  for (const FuzzCase& fuzz_case : cases) {
    os << FormatFuzzCase(fuzz_case) << "\n";
  }
  return os.str();
}

StatusOr<std::vector<FuzzCase>> ParseFuzzCorpus(const std::string& text) {
  std::vector<FuzzCase> cases;
  std::istringstream is(text);
  std::string line;
  int line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    const size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') {
      continue;
    }
    StatusOr<FuzzCase> parsed = ParseFuzzCase(line);
    if (!parsed.ok()) {
      return InvalidArgumentError("corpus line " + std::to_string(line_number) +
                                  ": " + std::string(parsed.status().message()));
    }
    cases.push_back(*std::move(parsed));
  }
  return cases;
}

// --- Sampling ----------------------------------------------------------------

FuzzCase SampleFuzzCase(const FuzzConfig& config, uint64_t case_seed) {
  Rng rng(case_seed ^ kSampleSalt);
  std::vector<std::string> names = config.packs;
  if (names.empty()) {
    for (const ScenarioPack& pack : ScenarioPacks()) {
      names.push_back(pack.name);
    }
  }
  FuzzCase fuzz_case;
  fuzz_case.pack = names[rng.NextBounded(names.size())];
  fuzz_case.seed = case_seed;
  const ScenarioPack* pack = FindScenarioPack(fuzz_case.pack);
  SDB_CHECK(pack != nullptr);
  // Each knob is overridden with probability 0.4; the rest stay at pack
  // defaults so shrinking has something to revert toward.
  for (const PackParamSpec& spec : pack->params) {
    const bool override_it = rng.NextDouble() < 0.4;
    const double value = rng.Uniform(spec.min_value, spec.max_value);
    if (override_it) {
      fuzz_case.overrides[spec.name] = value;
    }
  }
  fuzz_case.directives.discharging = rng.Uniform(0.05, 0.95);
  fuzz_case.directives.charging = rng.Uniform(0.05, 0.95);
  if (rng.NextDouble() < config.fault_probability) {
    StatusOr<ScenarioSpec> spec =
        ExpandScenario(fuzz_case.pack, fuzz_case.overrides, fuzz_case.seed);
    SDB_CHECK(spec.ok());  // Sampled overrides are in-range by construction.
    const Duration horizon =
        Seconds(std::min(spec->sim.max_duration.value(), config.horizon_cap.value()));
    fuzz_case.faults =
        MakeRandomFaultPlan(case_seed ^ kFaultSalt,
                            static_cast<int>(spec->batteries.size()), horizon,
                            std::max(1, config.max_fault_events));
  }

  // The dimensions below draw from their own salted streams (see the salt
  // block up top) and need the expanded spec for windows and horizons.
  StatusOr<ScenarioSpec> spec =
      ExpandScenario(fuzz_case.pack, fuzz_case.overrides, fuzz_case.seed);
  SDB_CHECK(spec.ok());
  const Duration horizon =
      Seconds(std::min(spec->sim.max_duration.value(), config.horizon_cap.value()));

  // Charge-phase faults: when the scenario has a live supply window, aim one
  // fault drawn from the kinds that matter while charging at a supply-active
  // span, so recovery and replanning get exercised mid-charge too.
  Rng charge_rng(case_seed ^ kChargeFaultSalt);
  if (!spec->supply.empty() && charge_rng.NextDouble() < 0.5) {
    std::vector<const TraceSegment*> active;
    for (const TraceSegment& segment : spec->supply.segments()) {
      if (segment.power.value() > 0.0 && segment.start.value() < horizon.value()) {
        active.push_back(&segment);
      }
    }
    if (!active.empty()) {
      const TraceSegment& segment = *active[charge_rng.NextBounded(active.size())];
      const double span_start = segment.start.value();
      const double span_end =
          std::min(span_start + segment.duration.value(), horizon.value());
      const FaultClass kinds[] = {
          FaultClass::kRegulatorCollapse, FaultClass::kThermalTrip,
          FaultClass::kGaugeBias, FaultClass::kGaugeStuck};
      FaultEvent event;
      event.kind = kinds[charge_rng.NextBounded(std::size(kinds))];
      const double start = charge_rng.Uniform(span_start, span_end);
      event.start = Seconds(start);
      event.end = Seconds(std::min(
          span_end, start + std::max(30.0, 0.25 * (span_end - span_start))));
      event.battery =
          static_cast<int>(charge_rng.NextBounded(spec->batteries.size()));
      switch (event.kind) {
        case FaultClass::kRegulatorCollapse:
          event.magnitude = charge_rng.Uniform(0.5, 0.9);
          break;
        case FaultClass::kThermalTrip:
          event.magnitude = Celsius(charge_rng.Uniform(62.0, 75.0)).value();
          break;
        case FaultClass::kGaugeBias:
          event.magnitude = charge_rng.Uniform(-0.3, 0.3);
          break;
        default:
          event.magnitude = 0.0;
          break;
      }
      if (fuzz_case.faults.empty()) {
        fuzz_case.faults.seed = case_seed ^ kChargeFaultSalt;
      }
      fuzz_case.faults.Add(event);
    }
  }

  // Crash schedule (oracle 5): seeded kill points, torn checkpoint writes.
  Rng crash_rng(case_seed ^ kCrashSalt);
  if (crash_rng.NextDouble() < config.crash_probability) {
    fuzz_case.crashes =
        MakeRandomCrashPlan(case_seed ^ kCrashSalt, horizon,
                            std::max(1, config.max_crash_events))
            .events;
  }

  // Directive flips: when the case has faults, aim them just after a fault
  // window closes — the supervisor's CoolDown → Probing recovery window —
  // so replanning under new directives meets a still-recovering pack.
  Rng flip_rng(case_seed ^ kFlipSalt);
  if (flip_rng.NextDouble() < config.flip_probability) {
    const int count = 1 + static_cast<int>(flip_rng.NextBounded(
                              std::max(1, config.max_directive_flips)));
    for (int k = 0; k < count; ++k) {
      DirectiveFlip flip;
      if (!fuzz_case.faults.events.empty()) {
        const FaultEvent& fault = fuzz_case.faults.events[flip_rng.NextBounded(
            fuzz_case.faults.events.size())];
        flip.time = Seconds(std::min(
            fault.end.value() + flip_rng.Uniform(0.0, Minutes(10.0).value()),
            horizon.value()));
      } else {
        flip.time = Seconds(horizon.value() * flip_rng.Uniform(0.1, 0.9));
      }
      flip.discharging = flip_rng.Uniform(0.05, 0.95);
      flip.charging = flip_rng.Uniform(0.05, 0.95);
      fuzz_case.flips.push_back(flip);
    }
    std::sort(fuzz_case.flips.begin(), fuzz_case.flips.end(),
              [](const DirectiveFlip& a, const DirectiveFlip& b) {
                return a.time.value() < b.time.value();
              });
  }
  return fuzz_case;
}

// --- Oracles -----------------------------------------------------------------

std::vector<FuzzViolation> EvaluateFuzzCase(
    const FuzzCase& fuzz_case, const FuzzConfig& config,
    std::vector<obs::JournalEvent>* journal) {
  // Hermetic journaling: the case plays under its own journal (or none at
  // all), never the caller's — shrink evaluations stay silent under an
  // installed process journal, and a captured journal holds exactly this
  // case's events regardless of which worker thread ran it.
  obs::EventJournal local_journal;
  obs::JournalScope journal_scope(journal != nullptr ? &local_journal : nullptr);
  std::vector<FuzzViolation> violations;
  uint64_t dropped = 0;
  auto add = [&](Duration at, const char* oracle, std::string detail) {
    if (violations.size() >= kMaxViolationsPerCase) {
      ++dropped;
      return;
    }
    SDB_JOURNAL_EVENT(obs::EventKind::kOracleVerdict, at.value(), -1, oracle,
                      detail);
    violations.push_back(FuzzViolation{oracle, std::move(detail), at});
  };

  StatusOr<ScenarioSpec> expanded =
      ExpandScenario(fuzz_case.pack, fuzz_case.overrides, fuzz_case.seed);
  if (!expanded.ok()) {
    add(Seconds(0.0), "expand", std::string(expanded.status().message()));
    if (journal != nullptr) {
      *journal = local_journal.Snapshot();
    }
    return violations;
  }
  const ScenarioSpec& spec = *expanded;

  // Main run: full rig (safety supervisor + command link + fault plan),
  // audited by the soak invariants on every hardware tick.
  FuzzRig rig(spec, fuzz_case);

  std::vector<bool> prev_faulted(rig.micro.battery_count(), false);
  std::vector<double> prev_cycles(rig.micro.battery_count(), 0.0);
  for (size_t i = 0; i < rig.micro.battery_count(); ++i) {
    prev_cycles[i] = rig.micro.pack().cell(i).aging().cycle_count();
  }

  // Supply-funded energy the SimResult ledger cannot split out: the slice
  // of the supply fed straight to the load (sampled exactly as the driver
  // loop samples it) and the charge regulator's own losses.
  double supply_to_load_j = 0.0;
  double charge_circuit_loss_j = 0.0;

  // Per-battery envelopes for oracle 3: a trip is only unexpected if no
  // battery was ever commanded past its own 80% power envelope — the
  // blended policy can legitimately concentrate an in-envelope pack load
  // onto one battery, and protecting that battery is the supervisor's job.
  std::vector<Power> battery_envelope;
  for (const BatteryParams& battery : spec.batteries) {
    battery_envelope.push_back(Watts(0.8 * battery.max_discharge_current.value() *
                                     battery.nominal_voltage.value()));
  }
  bool overdrive = false;

  // Oracle 3 counts only trips struck while the battery still held real
  // charge: an undervoltage trip at the bottom of the discharge curve is
  // the deep-discharge protection working, not a spurious trip.
  std::vector<uint64_t> prev_trips(rig.micro.battery_count(), 0);
  uint64_t unexpected_trips = 0;

  size_t flip_cursor = 0;
  SimConfig sim_config = CappedSimConfig(spec, config);
  sim_config.on_tick = [&](const MicroTick& tick, Duration now) {
    ApplyDueFlips(fuzz_case, rig, now, &flip_cursor);
    const Duration at = now - tick.dt;
    const Power load_power = spec.load.Sample(at);
    const Power supply_power = spec.supply.Sample(at);
    supply_to_load_j += std::min(std::max(0.0, load_power.value()),
                                 std::max(0.0, supply_power.value())) *
                        tick.dt.value();
    charge_circuit_loss_j += tick.charge.circuit_loss.value();
    const std::vector<double>& ratios = rig.runtime.last_discharge_ratios();
    for (size_t i = 0; i < ratios.size() && i < battery_envelope.size(); ++i) {
      if (ratios[i] * std::max(0.0, load_power.value()) >
          battery_envelope[i].value()) {
        overdrive = true;
      }
    }
    for (size_t i = 0; i < rig.micro.battery_count(); ++i) {
      const Cell& cell = rig.micro.pack().cell(i);
      double soc = cell.soc();
      if (!std::isfinite(soc) || soc < 0.0 || soc > 1.0) {
        add(now, "soc-range",
            "battery " + std::to_string(i) + " soc " + std::to_string(soc));
      }
      double cycles = cell.aging().cycle_count();
      if (cycles + 1e-12 < prev_cycles[i]) {
        add(now, "cycle-monotone",
            "battery " + std::to_string(i) + " cycles " + std::to_string(cycles) +
                " < " + std::to_string(prev_cycles[i]));
      }
      prev_cycles[i] = cycles;
      if (prev_faulted[i]) {
        double discharge_a = i < tick.discharge.currents.size()
                                 ? std::fabs(tick.discharge.currents[i].value())
                                 : 0.0;
        double charge_a = i < tick.charge.currents.size()
                              ? std::fabs(tick.charge.currents[i].value())
                              : 0.0;
        if (discharge_a > 1e-9 || charge_a > 1e-9) {
          add(now, "faulted-current",
              "battery " + std::to_string(i) + " carried " +
                  std::to_string(std::max(discharge_a, charge_a)) +
                  " A while faulted");
        }
      }
      prev_faulted[i] = rig.safety.IsFaulted(i);
      uint64_t trips = rig.safety.trip_count(i);
      if (trips > prev_trips[i] && soc > 0.15) {
        unexpected_trips += trips - prev_trips[i];
      }
      prev_trips[i] = trips;
    }
  };

  double e0 = rig.micro.pack().TotalRemainingEnergy().value();
  Simulator sim(&rig.runtime, sim_config);
  SimResult result = sim.Run(spec.load, spec.supply);
  double e1 = rig.micro.pack().TotalRemainingEnergy().value();

  // Oracle 2: the energy ledger balances. Cells fund the pack-served slice
  // of the load plus discharge/transfer losses and their own charge-time
  // resistive loss; the supply funds what it feeds the load directly, what
  // the pack absorbs, and the charge regulator's losses. Rearranged so
  // both sides are observable:
  //   (e0 - e1) + charged + supply_to_load
  //     = delivered + total_losses - charge_circuit_loss
  double drawn = (e0 - e1) + result.charged.value() + supply_to_load_j;
  double accounted = result.delivered.value() + result.TotalLoss().value() -
                     charge_circuit_loss_j;
  double tolerance = std::max(2.0, std::fabs(drawn) * config.energy_tolerance_fraction);
  if (!std::isfinite(accounted) || std::fabs(drawn - accounted) > tolerance) {
    add(result.elapsed, "ledger",
        "drawn " + std::to_string(drawn) + " J vs accounted " +
            std::to_string(accounted) + " J");
  }

  // Oracle 3: no safety trip on an in-envelope, fault-free load where no
  // battery was individually commanded past its own envelope either.
  if (fuzz_case.faults.empty() && !overdrive &&
      spec.load.PeakPower().value() <= spec.envelope.value() &&
      unexpected_trips > 0) {
    add(result.elapsed, "safety-trip",
        std::to_string(unexpected_trips) +
            " trip(s) on in-envelope fault-free load (peak " +
            std::to_string(spec.load.PeakPower().value()) + " W, envelope " +
            std::to_string(spec.envelope.value()) + " W)");
  }

  // Oracle 4: the sampled policy must stay within the configured fraction
  // of the best panel policy's lifetime on the fault-free twin.
  const double panel[] = {0.1, 0.5, 0.9};
  Duration sampled_lifetime = PolicyLifetime(spec, fuzz_case.directives, config);
  Duration best = sampled_lifetime;
  double best_directive = fuzz_case.directives.discharging;
  for (double d : panel) {
    DirectiveParameters directives;
    directives.discharging = d;
    directives.charging = d;
    Duration lifetime = PolicyLifetime(spec, directives, config);
    if (lifetime.value() > best.value()) {
      best = lifetime;
      best_directive = d;
    }
  }
  if (best.value() > 0.0 &&
      sampled_lifetime.value() <
          (1.0 - config.max_lifetime_loss_fraction) * best.value()) {
    add(result.elapsed, "policy-regression",
        "dch=" + FormatG17(fuzz_case.directives.discharging) + " lifetime " +
            std::to_string(sampled_lifetime.value()) + " s vs " +
            std::to_string(best.value()) + " s at panel dch=" +
            FormatG17(best_directive));
  }

  // Oracle 5: crash equivalence. Replay the case with checkpointing on and
  // the scheduled deaths injected — killed at the named barriers, tearing
  // the checkpoint write when scheduled, warm-restarted from the last good
  // A/B slot (cold start when no slot survived). The final result must be
  // bit-identical to the never-crashed main run above; a failed restore of
  // a slot the store called good is a violation too.
  if (!fuzz_case.crashes.empty()) {
    std::vector<CrashEvent> crashes = fuzz_case.crashes;
    std::sort(crashes.begin(), crashes.end(),
              [](const CrashEvent& a, const CrashEvent& b) {
                return a.time.value() < b.time.value();
              });
    checkpoint::MemorySlotDevice device;
    const uint64_t digest =
        MixU64(MixU64(0, fuzz_case.seed), HashString(fuzz_case.pack));
    size_t crash_index = 0;
    auto twin = std::make_unique<FuzzRig>(spec, fuzz_case);
    auto store = std::make_unique<checkpoint::CheckpointStore>(&device, digest);
    bool cold_boot = true;
    SimLoopState resume_state;
    SimResult twin_result;
    bool restore_failed = false;
    for (;;) {
      size_t twin_cursor = 0;
      if (!cold_boot) {
        // Flips at or before the checkpoint were applied before the
        // snapshot and ride in the restored RuntimeState.
        while (twin_cursor < fuzz_case.flips.size() &&
               fuzz_case.flips[twin_cursor].time.value() <=
                   resume_state.t.value()) {
          ++twin_cursor;
        }
      }
      SimConfig twin_config = CappedSimConfig(spec, config);
      twin_config.checkpoint_period = config.crash_checkpoint_period;
      FuzzRig* twin_ptr = twin.get();
      checkpoint::CheckpointStore* store_ptr = store.get();
      twin_config.on_tick = [&fuzz_case, twin_ptr, &twin_cursor](
                                const MicroTick&, Duration now) {
        ApplyDueFlips(fuzz_case, *twin_ptr, now, &twin_cursor);
      };
      twin_config.on_barrier = [&crashes, &crash_index](CrashBarrier barrier,
                                                        Duration now) {
        if (crash_index < crashes.size()) {
          const CrashEvent& next = crashes[crash_index];
          if (next.barrier == barrier && now.value() >= next.time.value()) {
            ++crash_index;
            SDB_JOURNAL_EVENT(obs::EventKind::kSimEvent, now.value(), -1,
                              "crash-injected",
                              std::string(CrashBarrierName(barrier)));
            return false;
          }
        }
        return true;
      };
      twin_config.on_checkpoint = [&](const SimLoopState& state) {
        bool die = false;
        if (crash_index < crashes.size()) {
          const CrashEvent& next = crashes[crash_index];
          if (next.barrier == CrashBarrier::kMidCheckpointWrite &&
              state.t.value() >= next.time.value()) {
            die = true;
            if (next.torn != TornWriteKind::kNone) {
              const TornWriteKind torn = next.torn;
              const uint64_t torn_seed =
                  fuzz_case.seed ^ kFuzzTornSalt ^ crash_index;
              store_ptr->SetWriteMutatorOnce(
                  [torn, torn_seed](std::vector<uint8_t>& bytes) {
                    ApplyTornWrite(torn, torn_seed, bytes);
                  });
            }
            ++crash_index;
            SDB_JOURNAL_EVENT(
                obs::EventKind::kSimEvent, state.t.value(), -1,
                "crash-injected",
                std::string(CrashBarrierName(CrashBarrier::kMidCheckpointWrite)) +
                    (next.torn != TornWriteKind::kNone
                         ? std::string(":") +
                               std::string(TornWriteKindName(next.torn))
                         : std::string()));
          }
        }
        Status saved = store_ptr->Save(SnapshotFuzzRig(*twin_ptr, state), state.t);
        if (!saved.ok()) {
          add(state.t, "crash-save", saved.ToString());
        }
        return !die;
      };
      Simulator twin_sim(&twin->runtime, twin_config);
      twin_result = cold_boot ? twin_sim.Run(spec.load, spec.supply)
                              : twin_sim.Resume(resume_state, spec.load, spec.supply);
      if (!twin_result.crashed) {
        break;
      }
      // Process death: rig and store die; only the slot device survives.
      twin = std::make_unique<FuzzRig>(spec, fuzz_case);
      store = std::make_unique<checkpoint::CheckpointStore>(&device, digest);
      StatusOr<checkpoint::LoadResult> loaded = store->LoadLastGood();
      if (!loaded.ok()) {
        SDB_JOURNAL_EVENT(obs::EventKind::kCheckpointRestore, -1.0, -1,
                          "cold-start", loaded.status().ToString());
        cold_boot = true;
        continue;
      }
      Status restored = RestoreFuzzRig(*twin, loaded->snapshot, &resume_state);
      if (!restored.ok()) {
        add(result.elapsed, "crash-restore", restored.ToString());
        restore_failed = true;
        break;
      }
      SDB_JOURNAL_EVENT(obs::EventKind::kCheckpointRestore,
                        resume_state.t.value(), -1, "warm-restart",
                        std::string(loaded->fell_back ? "fallback slot"
                                                      : "newest slot"));
      store->AdoptLoaded(*loaded);
      cold_boot = false;
    }
    if (!restore_failed) {
      std::string divergence = DescribeSimResultDivergence(result, twin_result);
      if (!divergence.empty()) {
        add(twin_result.elapsed, "crash-divergence", divergence);
      }
    }
  }

  if (dropped > 0) {
    violations.back().detail += " (+" + std::to_string(dropped) + " dropped)";
  }
  if (journal != nullptr) {
    *journal = local_journal.Snapshot();
  }
  return violations;
}

// --- Shrinking ---------------------------------------------------------------

FuzzCase ShrinkFuzzCaseWith(const FuzzCase& fuzz_case,
                            const std::function<bool(const FuzzCase&)>& fails,
                            int budget, int* steps) {
  FuzzCase current = fuzz_case;
  int accepted = 0;
  int spent = 0;
  auto try_candidate = [&](const FuzzCase& candidate) {
    if (spent >= budget) {
      return false;
    }
    ++spent;
    if (!fails(candidate)) {
      return false;
    }
    current = candidate;
    ++accepted;
    return true;
  };
  bool reduced = true;
  while (reduced && spent < budget) {
    reduced = false;
    // Pass 1: drop fault events one at a time.
    for (size_t i = 0; i < current.faults.events.size();) {
      FuzzCase candidate = current;
      candidate.faults.events.erase(candidate.faults.events.begin() +
                                    static_cast<long>(i));
      if (try_candidate(candidate)) {
        reduced = true;  // `current` shrank; retry the same index.
      } else {
        ++i;
      }
    }
    // Pass 2: drop crash events one at a time.
    for (size_t i = 0; i < current.crashes.size();) {
      FuzzCase candidate = current;
      candidate.crashes.erase(candidate.crashes.begin() + static_cast<long>(i));
      if (try_candidate(candidate)) {
        reduced = true;
      } else {
        ++i;
      }
    }
    // Pass 3: drop directive flips one at a time.
    for (size_t i = 0; i < current.flips.size();) {
      FuzzCase candidate = current;
      candidate.flips.erase(candidate.flips.begin() + static_cast<long>(i));
      if (try_candidate(candidate)) {
        reduced = true;
      } else {
        ++i;
      }
    }
    // Pass 4: revert parameter overrides to pack defaults.
    std::vector<std::string> keys;
    for (const auto& [name, value] : current.overrides) {
      keys.push_back(name);
    }
    for (const std::string& name : keys) {
      FuzzCase candidate = current;
      candidate.overrides.erase(name);
      if (try_candidate(candidate)) {
        reduced = true;
      }
    }
    // Pass 5: snap directives to the neutral 0.5.
    if (current.directives.discharging != 0.5) {
      FuzzCase candidate = current;
      candidate.directives.discharging = 0.5;
      reduced = try_candidate(candidate) || reduced;
    }
    if (current.directives.charging != 0.5) {
      FuzzCase candidate = current;
      candidate.directives.charging = 0.5;
      reduced = try_candidate(candidate) || reduced;
    }
  }
  if (steps != nullptr) {
    *steps = accepted;
  }
  return current;
}

FuzzCase ShrinkFuzzCase(const FuzzCase& fuzz_case, const FuzzConfig& config,
                        int* steps) {
  return ShrinkFuzzCaseWith(
      fuzz_case,
      [&config](const FuzzCase& candidate) {
        return !EvaluateFuzzCase(candidate, config).empty();
      },
      config.shrink_budget, steps);
}

// --- The sweep ---------------------------------------------------------------

namespace {

FuzzCaseReport BuildCaseReport(FuzzCase sampled, const FuzzConfig& config,
                               bool shrink) {
  FuzzCaseReport report;
  report.sampled = std::move(sampled);
  report.violations = EvaluateFuzzCase(report.sampled, config, &report.journal);
  report.failed = !report.violations.empty();
  if (report.failed) {
    FuzzCase minimal = shrink
                           ? ShrinkFuzzCase(report.sampled, config,
                                            &report.shrink_steps)
                           : report.sampled;
    report.reproducer = FormatFuzzCase(minimal);
    if (report.reproducer != FormatFuzzCase(report.sampled)) {
      // The journal should narrate the case the reproducer line replays, so
      // re-run the shrunk case once with capture. The violations (and the
      // fingerprint they feed) stay those of the sampled case.
      EvaluateFuzzCase(minimal, config, &report.journal);
    }
  }
  uint64_t h = MixU64(0, report.sampled.seed);
  h = MixU64(h, HashString(FormatFuzzCase(report.sampled)));
  h = MixU64(h, report.failed ? 1 : 0);
  h = MixU64(h, static_cast<uint64_t>(report.violations.size()));
  for (const FuzzViolation& violation : report.violations) {
    h = MixU64(h, HashString(violation.oracle));
  }
  h = MixU64(h, HashString(report.reproducer));
  report.fingerprint = h;
  return report;
}

FuzzReport MergeCaseReports(std::vector<FuzzCaseReport> slots) {
  FuzzReport report;
  report.cases = std::move(slots);
  uint64_t h = 0;
  for (const FuzzCaseReport& fuzz_case : report.cases) {
    if (fuzz_case.failed) {
      ++report.failures;
    }
    h = MixU64(h, fuzz_case.fingerprint);
  }
  report.fingerprint = h;
  return report;
}

}  // namespace

StatusOr<FuzzReport> RunFuzz(const FuzzConfig& config) {
  if (config.cases <= 0) {
    return InvalidArgumentError("fuzz wants at least one case");
  }
  for (const std::string& name : config.packs) {
    if (FindScenarioPack(name) == nullptr) {
      return InvalidArgumentError("unknown pack '" + name +
                                  "' in fuzz pack list (sdbsim workload --list)");
    }
  }
  std::vector<FuzzCaseReport> slots(config.cases);
  std::optional<ThreadPool> pool;
  if (config.jobs != 1) {
    pool.emplace(config.jobs);
  }
  const FuzzConfig& cfg = config;
  // Index-slot determinism: case k depends on (config, master_seed + k)
  // alone and writes only slot k, so any worker count is bit-identical.
  ParallelFor(pool.has_value() ? &*pool : nullptr, config.cases,
              [&slots, &cfg](int64_t index) {
                slots[index] = BuildCaseReport(
                    SampleFuzzCase(cfg, cfg.master_seed + static_cast<uint64_t>(index)),
                    cfg, cfg.shrink);
              });
  return MergeCaseReports(std::move(slots));
}

FuzzReport ReplayFuzzCases(const std::vector<FuzzCase>& cases,
                           const FuzzConfig& config) {
  std::vector<FuzzCaseReport> slots(cases.size());
  std::optional<ThreadPool> pool;
  if (config.jobs != 1 && cases.size() > 1) {
    pool.emplace(config.jobs);
  }
  const FuzzConfig& cfg = config;
  ParallelFor(pool.has_value() ? &*pool : nullptr,
              static_cast<int64_t>(cases.size()),
              [&slots, &cases, &cfg](int64_t index) {
                // Replay never re-shrinks: the line under replay is already
                // the minimal case and must fail (or pass) as-is.
                slots[index] = BuildCaseReport(cases[index], cfg, /*shrink=*/false);
              });
  return MergeCaseReports(std::move(slots));
}

}  // namespace sdb
