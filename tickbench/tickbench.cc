// Tick benchmark: host time per simulated tick through the whole rig
// (simulator loop, SdbRuntime, command link, SdbMicrocontroller, circuits,
// gauges, safety, chem cells), end to end and split by layer.
//
//   tickbench --workload <twoin1-week|phone-day|pack8-link> --seed <n>
//             --seconds <s> --trace <0|1>
//   tickbench --self-test
//
// Every run plays the workload to its end as many times as fit in
// --seconds. --trace 0 prints the end-to-end metrics of untraced runs
// through the public Simulator::Run; --trace 1 prints the per-layer metrics
// of a separate traced run driven by the benchmark's own tick loop. Both
// modes run the same output checks. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. See README.md.
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "span_fold.h"
#include "src/chem/cell.h"
#include "src/chem/library.h"
#include "src/core/runtime.h"
#include "src/emu/scenario_pack.h"
#include "src/emu/simulator.h"
#include "src/emu/workload.h"
#include "src/hw/command_link.h"
#include "src/hw/microcontroller.h"
#include "src/hw/safety.h"
#include "src/obs/trace.h"

// --- Heap allocation counter -------------------------------------------------
// Replaces the global operator new of this binary. Counting is switched on
// only for the traced run; the untraced runs pay one predictable branch.

namespace {
bool g_count_allocs = false;
uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocs) {
    ++g_allocs;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line, so the compiler never sees free() paired with a new-expression.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace tickbench {
namespace {

using namespace sdb;  // NOLINT: the benchmark drives the sdb API throughout.

uint64_t Now() { return obs::MonotonicNanos(); }

// splitmix64 finaliser: derives independent sub-seeds from --seed.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// --- Workloads ------------------------------------------------------------------

struct Workload {
  ScenarioSpec spec;
  uint64_t chunk_ticks = 1000;  // Ticks per timed chunk, about 1 ms of host time.
  bool link = false;    // Runtime reaches the micro through CommandLink.
  bool safety = false;  // SafetySupervisor with recovery attached.
};

// pack8-link: 8 tablet cells (fast-charge and high-energy alternating) with
// a recovering safety supervisor, reached over the command link, re-planned
// every 5 s; 30-minute on-battery and docked phases alternate over 6 h.
ScenarioSpec MakePack8LinkSpec(uint64_t seed) {
  constexpr int kCells = 8;
  const Duration horizon = Hours(6.0);
  const Duration phase = Minutes(30.0);
  ScenarioSpec spec;
  spec.pack = "pack8-link";
  spec.seed = seed;
  for (int i = 0; i < kCells; ++i) {
    spec.batteries.push_back(i % 2 == 0 ? MakeFastChargeTablet(MilliAmpHours(4000.0))
                                        : MakeHighEnergyTablet(MilliAmpHours(4000.0)));
    spec.initial_soc.push_back(0.6);
  }
  spec.load = MakeBurstyTrace(Watts(12.0), Watts(30.0), 0.3, horizon, Seconds(30.0),
                              SubSeed(seed, 1));
  for (int p = 0; p * phase.value() < horizon.value(); ++p) {
    spec.supply.Append(phase, Watts(p % 2 == 0 ? 0.0 : 45.0));
  }
  spec.sim.tick = Seconds(1.0);
  spec.sim.runtime_period = Seconds(5.0);
  spec.sim.max_duration = horizon + spec.sim.tick;
  spec.sim.stop_on_shortfall = false;
  return spec;
}

// Scenario expansion: the workload's inputs, a pure function of the seed.
std::optional<Workload> ExpandWorkload(std::string_view name, uint64_t seed) {
  Workload w;
  if (name == "twoin1-week") {
    // 8000 mAh cells never run dry over the 120 h week.
    StatusOr<ScenarioSpec> spec =
        ExpandScenario("twoin1-docking-week", {{"capacity_mah", 8000.0}}, seed);
    if (!spec.ok()) {
      return std::nullopt;
    }
    w.spec = std::move(*spec);
    w.spec.sim.tick = Seconds(1.0);
  } else if (name == "phone-day") {
    StatusOr<ScenarioSpec> spec = ExpandScenario("phone-day", {}, seed);
    if (!spec.ok()) {
      return std::nullopt;
    }
    w.spec = std::move(*spec);
    w.spec.sim.tick = Seconds(0.25);
  } else if (name == "pack8-link") {
    w.spec = MakePack8LinkSpec(seed);
    w.link = true;
    w.safety = true;
    w.chunk_ticks = 100;
  } else {
    return std::nullopt;
  }
  return w;
}

// --- Rig --------------------------------------------------------------------------

class SpanRecorder;

// Wire traffic seen by the benchmark-owned link transport.
struct LinkAccounting {
  uint64_t frames = 0;
  uint64_t bytes = 0;
  uint64_t server_ns = 0;
};

// Microcontroller (+ supervisor, + link endpoints) + runtime for one run.
// Members point at each other, so a rig never moves.
class Rig {
 public:
  Rig(const Workload& w, uint64_t seed)
      : micro(MakeDefaultMicrocontroller(BuildScenarioCells(w.spec), SubSeed(seed, 2))),
        runtime(&micro, MakeRuntimeConfig(w.spec)) {
    if (w.safety) {
      std::vector<SafetyLimits> limits;
      for (const BatteryParams& params : w.spec.batteries) {
        limits.push_back(DeriveLimits(params));
      }
      safety.emplace(std::move(limits), RecoveryConfig{.enabled = true});
      micro.AttachSafety(&*safety);
    }
    if (w.link) {
      server.emplace(&micro);
      client.emplace([this](const std::vector<uint8_t>& bytes) { return Transport(bytes); });
      runtime.AttachLink(&*client);
    }
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  SdbMicrocontroller micro;
  std::optional<SafetySupervisor> safety;
  std::optional<CommandLinkServer> server;
  std::optional<CommandLinkClient> client;
  SdbRuntime runtime;
  LinkAccounting link;
  SpanRecorder* recorder = nullptr;  // Set for the traced run.

 private:
  static RuntimeConfig MakeRuntimeConfig(const ScenarioSpec& spec) {
    RuntimeConfig config;
    config.directives = spec.directives;
    return config;
  }
  std::vector<uint8_t> Transport(const std::vector<uint8_t>& request);
};

// Benchmark-owned spans of the traced run, folded into self times together
// with the program's obs::Tracer spans every few thousand spans.
class SpanRecorder {
 public:
  void Add(std::string_view name, uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back(Span{name, start_ns, end_ns - start_ns, seq_++});
  }
  // Flushes the tracer ring into the pending spans and folds them. Call only
  // between ticks, when every open span has closed.
  void Drain() {
    obs::Tracer& tracer = obs::Tracer::Global();
    dropped_ += tracer.dropped();
    for (const obs::TraceEvent& e : tracer.Snapshot()) {
      spans_.push_back(Span{e.name, e.wall_start_ns, e.wall_dur_ns, seq_++});
    }
    tracer.Clear();
    FoldSelfTimes(spans_, self_);
    spans_.clear();
  }
  bool DrainDue() const { return spans_.size() >= kDrainEvery; }
  const SelfTimes& self() const { return self_; }
  uint64_t dropped() const { return dropped_; }

 private:
  static constexpr size_t kDrainEvery = 4096;
  std::vector<Span> spans_;
  SelfTimes self_;
  uint64_t seq_ = 0;
  uint64_t dropped_ = 0;
};

std::vector<uint8_t> Rig::Transport(const std::vector<uint8_t>& request) {
  std::vector<uint8_t> reply;
  if (recorder != nullptr) {
    uint64_t t0 = Now();
    reply = server->Receive(request);
    uint64_t t1 = Now();
    recorder->Add("link.server_receive", t0, t1);
    link.server_ns += t1 - t0;
  } else {
    reply = server->Receive(request);
  }
  // One request frame in, one response frame out per roundtrip.
  link.frames += 1 + (reply.empty() ? 0 : 1);
  link.bytes += request.size() + reply.size();
  return reply;
}

// --- Independent reference computations -----------------------------------------

double HorizonSeconds(const ScenarioSpec& spec) {
  return std::min(std::max(spec.load.TotalDuration(), spec.supply.TotalDuration()).value(),
                  spec.sim.max_duration.value());
}

uint64_t ExpectedTicks(const ScenarioSpec& spec) {
  return static_cast<uint64_t>(std::ceil(HorizonSeconds(spec) / spec.sim.tick.value()));
}

// Re-plan deadlines at 0, P, 2P, ... inside the horizon.
uint64_t ExpectedUpdates(const ScenarioSpec& spec) {
  return static_cast<uint64_t>(
      std::ceil(HorizonSeconds(spec) / spec.sim.runtime_period.value()));
}

// Power of a piecewise-constant trace on [from, to), constant inside.
double SegmentPowerAt(const std::vector<TraceSegment>& segs, size_t& cursor, double t) {
  while (cursor < segs.size() &&
         segs[cursor].start.value() + segs[cursor].duration.value() <= t) {
    ++cursor;
  }
  if (cursor >= segs.size() || t < segs[cursor].start.value()) {
    return 0.0;
  }
  return segs[cursor].power.value();
}

// Integrates f(load_w, supply_w) over [0, horizon) exactly, merging the two
// traces' segment boundaries.
double IntegrateTraces(const ScenarioSpec& spec,
                       const std::function<double(double, double)>& f) {
  const double horizon = HorizonSeconds(spec);
  std::vector<double> cuts = {0.0, horizon};
  for (const PowerTrace* trace : {&spec.load, &spec.supply}) {
    for (const TraceSegment& s : trace->segments()) {
      for (double edge : {s.start.value(), s.start.value() + s.duration.value()}) {
        if (edge > 0.0 && edge < horizon) {
          cuts.push_back(edge);
        }
      }
    }
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  size_t load_cursor = 0;
  size_t supply_cursor = 0;
  double total = 0.0;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    double load_w = SegmentPowerAt(spec.load.segments(), load_cursor, cuts[i]);
    double supply_w = SegmentPowerAt(spec.supply.segments(), supply_cursor, cuts[i]);
    total += f(load_w, supply_w) * (cuts[i + 1] - cuts[i]);
  }
  return total;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameOptional(const std::optional<Duration>& a, const std::optional<Duration>& b) {
  return a.has_value() == b.has_value() && (!a.has_value() || SameBits(a->value(), b->value()));
}

bool SameResult(const SimResult& a, const SimResult& b) {
  if (!SameBits(a.elapsed.value(), b.elapsed.value()) ||
      !SameOptional(a.first_shortfall, b.first_shortfall) ||
      !SameBits(a.delivered.value(), b.delivered.value()) ||
      !SameBits(a.battery_loss.value(), b.battery_loss.value()) ||
      !SameBits(a.circuit_loss.value(), b.circuit_loss.value()) ||
      !SameBits(a.charged.value(), b.charged.value()) ||
      a.final_soc.size() != b.final_soc.size() ||
      a.depletion_time.size() != b.depletion_time.size() ||
      a.events.size() != b.events.size() || a.hourly.size() != b.hourly.size() ||
      a.update_failures != b.update_failures || a.crashed != b.crashed) {
    return false;
  }
  for (size_t i = 0; i < a.final_soc.size(); ++i) {
    if (!SameBits(a.final_soc[i], b.final_soc[i]) ||
        !SameOptional(a.depletion_time[i], b.depletion_time[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < a.events.size(); ++i) {
    if (a.events[i].kind != b.events[i].kind || a.events[i].battery != b.events[i].battery ||
        !SameBits(a.events[i].time.value(), b.events[i].time.value())) {
      return false;
    }
  }
  for (size_t i = 0; i < a.hourly.size(); ++i) {
    const HourlyStats& x = a.hourly[i];
    const HourlyStats& y = b.hourly[i];
    if (!SameBits(x.load_energy.value(), y.load_energy.value()) ||
        !SameBits(x.battery_loss.value(), y.battery_loss.value()) ||
        !SameBits(x.circuit_loss.value(), y.circuit_loss.value()) ||
        x.degraded != y.degraded || x.link_retries != y.link_retries ||
        x.link_failures != y.link_failures || x.stale_updates != y.stale_updates) {
      return false;
    }
  }
  return true;
}

// --- The benchmark's own tick loop -------------------------------------------------
// Mirrors Simulator::RunLoop (no crash hooks, no timeline) so its SimResult
// must be bit-identical to Simulator::Run's, while timing each public call
// as a span and recording what the checks need.

struct TracedRun {
  SimResult result;
  uint64_t ticks = 0;
  uint64_t updates = 0;
  uint64_t wall_ns = 0;
  uint64_t update_allocs = 0;
  uint64_t step_allocs = 0;
  // Per-cell sum of current * dt (coulombs; discharge positive).
  std::vector<double> coulombs;
  std::vector<double> throughput_c;      // Per-cell sum of |current| * dt.
  std::vector<double> final_capacity_c;  // Effective capacity after the run.
  bool soc_in_range = true;
  // Per tick, per cell: net current (A), for the chem replay.
  std::vector<double> currents;
};

TracedRun RunTracedLoop(Rig& rig, const ScenarioSpec& spec, SpanRecorder& rec,
                        bool record_currents) {
  TracedRun out;
  SdbMicrocontroller* micro = &rig.micro;
  SdbRuntime* runtime = &rig.runtime;
  const size_t n = micro->battery_count();
  out.coulombs.assign(n, 0.0);
  out.throughput_c.assign(n, 0.0);
  if (record_currents) {
    out.currents.reserve(ExpectedTicks(spec) * n);
  }
  SimResult& result = out.result;
  result.final_soc.assign(n, 0.0);
  result.depletion_time.assign(n, std::nullopt);

  const PowerTrace& load = spec.load;
  const PowerTrace& supply = spec.supply;
  const double horizon_s = HorizonSeconds(spec);
  const double tick_s = spec.sim.tick.value();
  const double period_s = spec.sim.runtime_period.value();
  double next_replan = 0.0;
  bool transfer_was_active = false;
  double t = 0.0;

  rig.recorder = &rec;
  const uint64_t loop_start = Now();
  uint64_t gap_start = loop_start;  // End of the previous tick span.
  while (t < horizon_s) {
    const uint64_t tick_start = Now();
    rec.Add("obs.bench", gap_start, tick_start);
    obs::SetSimTime(Seconds(t));

    uint64_t c0 = Now();
    Power p_load = load.Sample(Seconds(t));
    Power p_supply = supply.Sample(Seconds(t));
    uint64_t c1 = Now();
    rec.Add("emu.sample", c0, c1);

    if (t >= next_replan) {
      const uint64_t a0 = g_allocs;
      c0 = Now();
      Status update_status = runtime->Update(p_load, p_supply);
      c1 = Now();
      out.update_allocs += g_allocs - a0;
      rec.Add("core.update", c0, c1);
      ++out.updates;
      if (!update_status.ok()) {
        ++result.update_failures;
      }
      next_replan = t + period_s;
    }

    const uint64_t a0 = g_allocs;
    c0 = Now();
    MicroTick tick = micro->Step(p_load, p_supply, Seconds(tick_s));
    c1 = Now();
    out.step_allocs += g_allocs - a0;
    rec.Add("hw.micro_step", c0, c1);

    c0 = Now();
    runtime->AdvanceTime(Seconds(tick_s));
    c1 = Now();
    rec.Add("core.advance_time", c0, c1);
    t += tick_s;

    // Energy ledger (same operations, same order as Simulator::RunLoop).
    double delivered_j = tick.discharge.delivered.value() * tick_s;
    double battery_loss_j = tick.discharge.battery_loss.value() +
                            tick.charge.battery_loss.value() +
                            tick.transfer.battery_loss.value();
    double circuit_loss_j = tick.discharge.circuit_loss.value() +
                            tick.charge.circuit_loss.value() +
                            tick.transfer.circuit_loss.value();
    result.delivered += Joules(delivered_j);
    result.battery_loss += Joules(battery_loss_j);
    result.circuit_loss += Joules(circuit_loss_j);
    result.charged += Joules(tick.charge.absorbed.value() * tick_s);

    size_t hour = static_cast<size_t>(ToHours(Seconds(t)));
    if (result.hourly.size() <= hour) {
      result.hourly.resize(hour + 1, HourlyStats{Joules(0.0), Joules(0.0), Joules(0.0)});
    }
    HourlyStats& hourly = result.hourly[hour];
    hourly.load_energy += Joules(delivered_j);
    hourly.battery_loss += Joules(battery_loss_j);
    hourly.circuit_loss += Joules(circuit_loss_j);
    const ResilienceCounters& resilience = runtime->resilience();
    hourly.degraded = hourly.degraded || runtime->degraded();
    hourly.link_retries = resilience.link_retries;
    hourly.link_failures = resilience.link_failures;
    hourly.stale_updates = resilience.stale_updates;

    for (size_t i = 0; i < n; ++i) {
      const Cell& cell = micro->pack().cell(i);
      if (!result.depletion_time[i].has_value() && cell.IsEmpty(1e-3)) {
        result.depletion_time[i] = Seconds(t);
        result.events.push_back(
            SimEvent{SimEventKind::kBatteryDepleted, Seconds(t), static_cast<int>(i)});
      }
    }
    if (transfer_was_active && !micro->transfer_active()) {
      result.events.push_back(SimEvent{SimEventKind::kTransferEnded, Seconds(t), -1});
    }
    transfer_was_active = micro->transfer_active();
    if (tick.discharge.shortfall && p_load.value() > 0.0 &&
        !result.first_shortfall.has_value()) {
      result.first_shortfall = Seconds(t);
      result.events.push_back(SimEvent{SimEventKind::kLoadShortfall, Seconds(t), -1});
    }
    const uint64_t tick_end = Now();
    rec.Add("emu.tick", tick_start, tick_end);
    gap_start = tick_end;
    ++out.ticks;

    // Benchmark bookkeeping, timed as the obs.bench gap before the next tick.
    for (size_t i = 0; i < n; ++i) {
      double amps = 0.0;
      if (i < tick.discharge.currents.size()) {
        amps += tick.discharge.currents[i].value();
      }
      if (i < tick.charge.currents.size()) {
        amps += tick.charge.currents[i].value();
      }
      out.coulombs[i] += amps * tick_s;
      out.throughput_c[i] += std::fabs(amps) * tick_s;
      if (record_currents) {
        out.currents.push_back(amps);
      }
      double soc = micro->pack().cell(i).soc();
      out.soc_in_range = out.soc_in_range && std::isfinite(soc) && soc >= 0.0 && soc <= 1.0;
    }
    if (rec.DrainDue()) {
      rec.Drain();
    }
  }
  const uint64_t loop_end = Now();
  rec.Add("obs.bench", gap_start, loop_end);
  out.wall_ns = loop_end - loop_start;
  rig.recorder = nullptr;
  obs::ClearSimTime();
  rec.Drain();

  result.elapsed = Seconds(t);
  for (size_t i = 0; i < n; ++i) {
    result.final_soc[i] = micro->pack().cell(i).soc();
    out.final_capacity_c.push_back(micro->pack().cell(i).EffectiveCapacity().value());
  }
  return out;
}

// Layer of a span: the module its name starts with (benchmark spans use the
// module name, program spans their site prefix).
std::string_view LayerOf(std::string_view name) {
  for (auto [prefix, layer] : {std::pair<std::string_view, std::string_view>{"runtime.", "core"},
                               {"circuit.", "hw"},
                               {"link.", "hw"},
                               {"cell.", "chem"},
                               {"pack.", "chem"}}) {
    if (name.substr(0, prefix.size()) == prefix) {
      return layer;
    }
  }
  return name.substr(0, name.find('.'));
}

// --- Chem replay -------------------------------------------------------------------

struct Replay {
  uint64_t cell_steps = 0;
  uint64_t wall_ns = 0;
  std::vector<double> final_soc;
};

// Steps fresh cells through the public current-driven Cell API with the
// per-tick currents the traced run recorded.
Replay RunChemReplay(const ScenarioSpec& spec, const std::vector<double>& currents) {
  std::vector<Cell> cells = BuildScenarioCells(spec);
  const size_t n = cells.size();
  const Duration dt = spec.sim.tick;
  Replay out;
  const uint64_t t0 = Now();
  for (size_t k = 0; k + n <= currents.size(); k += n) {
    for (size_t i = 0; i < n; ++i) {
      double amps = currents[k + i];
      if (amps > 0.0) {
        (void)cells[i].StepDischargeCurrent(Amps(amps), dt);
        ++out.cell_steps;
      } else if (amps < 0.0) {
        (void)cells[i].StepChargeCurrent(Amps(-amps), dt);
        ++out.cell_steps;
      }
    }
  }
  out.wall_ns = Now() - t0;
  for (const Cell& cell : cells) {
    out.final_soc.push_back(cell.soc());
  }
  return out;
}

// --- CPU rotation -------------------------------------------------------------------
// Host interference on a shared machine comes and goes per vCPU, for seconds
// at a time. Moving each untraced repeat to the next allowed CPU lets the
// per-chunk minimum (see Run) find an undisturbed pass even while one CPU
// stays busy for the whole run. Only this process's own affinity changes.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &original_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) {
      sched_setaffinity(0, sizeof(original_), &original_);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() > 1) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[next_++ % cpus_.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// --- Reporting -----------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Peak resident set of this process image, from VmHWM. (getrusage's
// ru_maxrss survives exec, so it would report a larger parent's peak.)
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "tickbench: check failed: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// Tolerances (README.md states them).
constexpr double kShortfallMargin = 0.005;    // Circuit's shortfall threshold.
constexpr double kReplaySocTolerance = 1e-9;  // Chem replay vs run, absolute SoC.
constexpr double kSelfTimeSumTolerance = 0.01;  // Layer self-times vs traced wall.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int Run(const Options& opt) {
  const std::optional<Workload> probe = ExpandWorkload(opt.workload, opt.seed);
  if (!probe.has_value()) {
    std::fprintf(stderr, "tickbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const ScenarioSpec& spec0 = probe->spec;
  const uint64_t want_ticks = ExpectedTicks(spec0);
  const uint64_t want_updates = ExpectedUpdates(spec0);
  const uint64_t run_start = Now();
  const double untraced_budget_s = opt.trace ? opt.seconds / 3.0 : opt.seconds;
  Checks checks;
  uint64_t updates_attempted = 0;
  uint64_t updates_failed = 0;

  // Untraced runs through Simulator::Run with the tracer disabled. Each
  // repeat sets up (timed as setup_s), moves to the next CPU, and plays the
  // run with the tick hook timing every `chunk_ticks` ticks. ns_per_tick sums,
  // over the chunks of the run, the fastest time any repeat took for that
  // chunk: the run's host time without interference from outside the process
  // (README.md, "Noise"). The median over whole repeats is printed beside it.
  obs::Tracer::Global().SetEnabled(false);
  std::vector<double> setup_s;
  std::vector<double> run_ns_per_tick;
  const uint64_t chunk_ticks = probe->chunk_ticks;
  std::vector<uint64_t> chunk_ns((want_ticks + chunk_ticks - 1) / chunk_ticks, 0);
  std::vector<uint64_t> chunk_min_ns(chunk_ns.size(), UINT64_MAX);
  std::optional<SimResult> reference;
  bool repeats_identical = true;
  bool update_counts_ok = true;
  bool no_trips_or_retries = true;
  {
    CpuRotation rotation;
    do {
      const uint64_t t0 = Now();
      std::optional<Workload> w = ExpandWorkload(opt.workload, opt.seed);
      auto rig = std::make_unique<Rig>(*w, opt.seed);
      SimConfig config = w->spec.sim;
      uint64_t barrier_updates = 0;
      config.on_barrier = [&barrier_updates](CrashBarrier barrier, Duration) {
        barrier_updates += barrier == CrashBarrier::kPostAllocate ? 1 : 0;
        return true;
      };
      uint64_t ticks_done = 0;
      uint64_t chunk_start = 0;
      config.on_tick = [&](const MicroTick&, Duration) {
        if (++ticks_done % chunk_ticks == 0) {
          const uint64_t now = Now();
          chunk_ns[ticks_done / chunk_ticks - 1] = now - chunk_start;
          chunk_start = now;
        }
      };
      Simulator sim(&rig->runtime, config);
      const uint64_t t1 = Now();
      setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);

      rotation.Next();
      const uint64_t t2 = Now();
      chunk_start = t2;
      SimResult result = sim.Run(w->spec.load, w->spec.supply);
      const uint64_t t3 = Now();
      if (ticks_done % chunk_ticks != 0) {
        chunk_ns.back() = t3 - chunk_start;
      }
      for (size_t j = 0; j < chunk_ns.size(); ++j) {
        chunk_min_ns[j] = std::min(chunk_min_ns[j], chunk_ns[j]);
      }
      run_ns_per_tick.push_back(static_cast<double>(t3 - t2) /
                                static_cast<double>(want_ticks));

      updates_attempted += barrier_updates;
      updates_failed += static_cast<uint64_t>(result.update_failures);
      update_counts_ok = update_counts_ok && barrier_updates == want_updates &&
                         ticks_done == want_ticks;
      const ResilienceCounters& res = rig->runtime.resilience();
      no_trips_or_retries = no_trips_or_retries && res.link_retries == 0 &&
                            res.link_failures == 0 && res.resyncs == 0;
      if (rig->safety.has_value()) {
        for (size_t i = 0; i < rig->safety->battery_count(); ++i) {
          no_trips_or_retries = no_trips_or_retries && rig->safety->trip_count(i) == 0;
        }
      }
      if (!reference.has_value()) {
        reference = std::move(result);
      } else {
        repeats_identical = repeats_identical && SameResult(*reference, result);
      }
    } while (static_cast<double>(Now() - run_start) * 1e-9 < untraced_budget_s ||
             run_ns_per_tick.size() < 3);
  }
  const double peak_rss_mb = PeakRssMb();
  double chunk_min_sum_ns = 0.0;
  for (uint64_t ns : chunk_min_ns) {
    chunk_min_sum_ns += static_cast<double>(ns);
  }
  const double untraced_ns_per_tick = chunk_min_sum_ns / static_cast<double>(want_ticks);

  // Traced runs through the benchmark's own loop, allocation counting on.
  obs::Tracer::Global().SetCapacity(size_t{1} << 16);
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);
  SpanRecorder rec;
  std::optional<TracedRun> first;
  uint64_t traced_ticks = 0;
  uint64_t traced_updates = 0;
  uint64_t traced_wall_ns = 0;
  uint64_t update_allocs = 0;
  uint64_t step_allocs = 0;
  LinkAccounting link;
  bool traced_identical = true;
  do {
    std::optional<Workload> w = ExpandWorkload(opt.workload, opt.seed);
    auto rig = std::make_unique<Rig>(*w, opt.seed);
    g_count_allocs = true;
    TracedRun run = RunTracedLoop(*rig, w->spec, rec, !first.has_value());
    g_count_allocs = false;
    traced_ticks += run.ticks;
    traced_updates += run.updates;
    traced_wall_ns += run.wall_ns;
    update_allocs += run.update_allocs;
    step_allocs += run.step_allocs;
    link.frames += rig->link.frames;
    link.bytes += rig->link.bytes;
    link.server_ns += rig->link.server_ns;
    updates_attempted += run.updates;
    updates_failed += static_cast<uint64_t>(run.result.update_failures);
    update_counts_ok =
        update_counts_ok && run.updates == want_updates && run.ticks == want_ticks;
    traced_identical = traced_identical && SameResult(*reference, run.result);
    if (!first.has_value()) {
      first = std::move(run);
    }
  } while (opt.trace && static_cast<double>(Now() - run_start) * 1e-9 < opt.seconds);
  obs::Tracer::Global().SetEnabled(false);

  // Chem replay of the first traced run's per-cell currents.
  std::vector<double> replay_ns;
  Replay replay;
  const uint64_t replay_start = Now();
  do {
    replay = RunChemReplay(spec0, first->currents);
    replay_ns.push_back(static_cast<double>(replay.wall_ns) /
                        static_cast<double>(std::max<uint64_t>(replay.cell_steps, 1)));
  } while (opt.trace && (replay_ns.size() < 5 || Now() - replay_start < 200'000'000ULL));

  // --- Output checks ---
  const SimResult& r = *reference;
  const double load_j = IntegrateTraces(spec0, [](double l, double) { return l; });
  const double surplus_j =
      IntegrateTraces(spec0, [](double l, double s) { return std::max(0.0, s - l); });
  checks.Expect(std::fabs(r.delivered.value() - load_j) <= kShortfallMargin * load_j,
                "delivered energy " + std::to_string(r.delivered.value()) +
                    " J vs load integral " + std::to_string(load_j) + " J");
  checks.Expect(r.charged.value() <= surplus_j * (1.0 + 1e-12),
                "charged energy " + std::to_string(r.charged.value()) +
                    " J exceeds supply surplus " + std::to_string(surplus_j) + " J");
  // Stored charge is SoC x effective capacity. The one change in it that no
  // current carries is capacity fade re-scaling it, which is at most the
  // fade itself; the rest is rounding over the throughput.
  double worst_coulomb_c = 0.0;  // Largest per-cell imbalance beyond the fade.
  for (size_t i = 0; i < spec0.batteries.size(); ++i) {
    const double cap0 = spec0.batteries[i].nominal_capacity.value();
    const double cap1 = first->final_capacity_c[i];
    const double stored_drop = spec0.initial_soc[i] * cap0 - r.final_soc[i] * cap1;
    const double excess = std::fabs(stored_drop - first->coulombs[i]) - std::fabs(cap0 - cap1) -
                          1e-9 * first->throughput_c[i];
    worst_coulomb_c = std::max(worst_coulomb_c, excess);
  }
  checks.Expect(worst_coulomb_c <= 1e-9,
                "coulomb balance off by " + std::to_string(worst_coulomb_c) + " C");
  checks.Expect(update_counts_ok, "Update count != " + std::to_string(want_updates) +
                                      " re-plan deadlines, or tick count != " +
                                      std::to_string(want_ticks));
  bool soc_ok = first->soc_in_range;
  for (double soc : r.final_soc) {
    soc_ok = soc_ok && std::isfinite(soc) && soc >= 0.0 && soc <= 1.0;
  }
  checks.Expect(soc_ok, "SoC outside [0, 1] or not finite");
  checks.Expect(no_trips_or_retries, "safety trip or link retry");
  checks.Expect(repeats_identical && traced_identical,
                "SimResult differs across repeats or from the traced loop");
  double worst_replay_soc = replay.final_soc.size() == r.final_soc.size() ? 0.0 : 1.0;
  for (size_t i = 0; i < r.final_soc.size() && i < replay.final_soc.size(); ++i) {
    worst_replay_soc = std::max(worst_replay_soc, std::fabs(replay.final_soc[i] - r.final_soc[i]));
  }
  checks.Expect(worst_replay_soc <= kReplaySocTolerance,
                "chem replay final SoC off by " + std::to_string(worst_replay_soc));
  checks.Expect(rec.dropped() == 0, "tracer dropped " + std::to_string(rec.dropped()) +
                                        " spans");

  // Per-layer self times.
  const SelfTimes& self = rec.self();
  auto get = [&self](std::string_view name) {
    auto it = self.find(name);
    return it == self.end() ? SelfTime{} : it->second;
  };
  const double ticks = static_cast<double>(traced_ticks);
  const double updates = static_cast<double>(std::max<uint64_t>(traced_updates, 1));
  std::map<std::string_view, double> layer_ns;  // Self ns per tick by layer.
  double layer_sum_ns = 0.0;
  for (const auto& [name, t] : self) {
    layer_ns[LayerOf(name)] += static_cast<double>(t.self_ns) / static_cast<double>(traced_ticks);
    layer_sum_ns += static_cast<double>(t.self_ns);
  }
  const double traced_ns_per_tick = static_cast<double>(traced_wall_ns) / ticks;
  checks.Expect(std::fabs(layer_sum_ns / ticks - traced_ns_per_tick) <=
                    kSelfTimeSumTolerance * traced_ns_per_tick,
                "layer self-times " + std::to_string(layer_sum_ns / ticks) +
                    " ns/tick vs traced " + std::to_string(traced_ns_per_tick));

  auto per_call = [](const SelfTime& t, bool self_only, double scale) {
    return t.calls == 0 ? 0.0
                        : static_cast<double>(self_only ? t.self_ns : t.total_ns) /
                              static_cast<double>(t.calls) * scale;
  };
  const SelfTime update = get("core.update");
  const SelfTime step = get("hw.micro_step");
  const SelfTime discharge = get("circuit.discharge_step");
  const SelfTime charge = get("circuit.charge_step");
  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"ns_per_tick", untraced_ns_per_tick, "ns"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    const double steps = static_cast<double>(std::max<uint64_t>(step.calls, 1));
    metrics = {
        {"emu.ticks", static_cast<double>(want_ticks), "count"},
        {"core.updates", static_cast<double>(want_updates), "count"},
        {"emu.loop_ns_per_tick",
         static_cast<double>(get("emu.tick").self_ns + get("emu.sample").self_ns) / ticks, "ns"},
        {"core.update_us", per_call(update, false, 1e-3), "us"},
        {"core.update_ns_per_tick", static_cast<double>(update.total_ns) / ticks, "ns"},
        {"core.query_status_us", per_call(get("runtime.query_status"), true, 1e-3), "us"},
        {"core.policy_eval_us", per_call(get("runtime.policy_eval"), true, 1e-3), "us"},
        {"core.allocate_us", per_call(get("runtime.allocate"), true, 1e-3), "us"},
        {"core.update_allocs", static_cast<double>(update_allocs) / updates, "count"},
        {"hw.micro_step_ns", per_call(step, false, 1.0), "ns"},
        {"hw.micro_self_ns", per_call(step, true, 1.0), "ns"},
        {"hw.discharge_step_ns", per_call(discharge, true, 1.0), "ns"},
        {"hw.charge_step_ns", per_call(charge, true, 1.0), "ns"},
        {"hw.discharge_steps_per_tick", static_cast<double>(discharge.calls) / ticks, "count"},
        {"hw.charge_steps_per_tick", static_cast<double>(charge.calls) / ticks, "count"},
        {"hw.micro_step_allocs", static_cast<double>(step_allocs) / steps, "count"},
        {"hw.link_frames_per_update", static_cast<double>(link.frames) / updates, "count"},
        {"hw.link_bytes_per_update", static_cast<double>(link.bytes) / updates, "B"},
        {"hw.link_server_us", static_cast<double>(link.server_ns) / updates * 1e-3, "us"},
        {"chem.cell_step_ns", Median(replay_ns), "ns"},
        {"chem.cell_steps_per_tick",
         static_cast<double>(replay.cell_steps) / static_cast<double>(want_ticks), "count"},
        {"obs.trace_overhead_ns_per_tick", traced_ns_per_tick - untraced_ns_per_tick, "ns"},
    };
  }

  // Human-readable lines, then the JSON result as the last line.
  std::printf("workload %s seed %llu: %llu ticks, %llu updates per run; %zu untraced runs\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(want_ticks),
              static_cast<unsigned long long>(want_updates), run_ns_per_tick.size());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::vector<double> sorted = run_ns_per_tick;
  std::sort(sorted.begin(), sorted.end());
  std::printf("untraced ns/tick: %.1f (chunk minimum); whole repeats (%zu): min %.1f median %.1f "
              "max %.1f\n",
              untraced_ns_per_tick, sorted.size(), sorted.front(), Median(sorted), sorted.back());
  std::printf("checks: delivered/load %.6f, coulomb excess %.3g C, replay SoC diff %.3g\n",
              r.delivered.value() / load_j, worst_coulomb_c, worst_replay_soc);
  std::printf("traced: %.1f ns/tick; self ns/tick by layer:", traced_ns_per_tick);
  for (const auto& [layer, ns] : layer_ns) {
    std::printf(" %.*s %.1f", static_cast<int>(layer.size()), layer.data(), ns);
  }
  std::printf(" (sum %.1f)\n", layer_sum_ns / static_cast<double>(traced_ticks));
  const uint64_t attempted = updates_attempted + checks.attempted();
  const uint64_t failed = updates_failed + checks.failed();
  std::string json = "{\"correct\": ";
  json += checks.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

bool ParseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
      continue;
    }
    if (flag == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      opt.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0.0;
}

}  // namespace
}  // namespace tickbench

int main(int argc, char** argv) {
  if (argc == 2 && std::string_view(argv[1]) == "--self-test") {
    int failures = tickbench::SelfTest();
    std::printf("span fold self-test: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  tickbench::Options opt;
  if (!tickbench::ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: tickbench --workload <twoin1-week|phone-day|pack8-link> --seed <n> "
                 "--seconds <s> --trace <0|1>\n       tickbench --self-test\n");
    return 2;
  }
  return tickbench::Run(opt);
}
