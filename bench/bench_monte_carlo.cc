// Monte-Carlo policy comparison: the Fig. 13 conclusion with spread. Each
// policy runs the smart-watch day across many jittered workload seeds
// (different check timings, burst powers, run intensity); mean, spread and
// worst case are reported per policy. The hinted policy's sweep is also
// timed, min-of-reps (check_overhead.py doctrine), as cell steps per second
// through the full rig.
//
// Flags: --runs N (default 24), --jobs N (default SDB_THREADS / hardware),
// --reps N (default 3), --bench-out PATH (write BENCH_monte_carlo.json),
// --speedup (time one sweep serially and with --jobs workers and print the
// ratio — the engine's determinism means both produce identical stats).
#include <cstring>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_report.h"
#include "src/emu/monte_carlo.h"
#include "src/emu/workload.h"
#include "src/obs/trace.h"
#include "src/util/histogram.h"
#include "src/util/thread_pool.h"

namespace {

using namespace sdb;

ScenarioFn MakeWatchScenario(double directive, bool hint) {
  return [directive, hint](uint64_t seed) {
    bench::Rig rig(bench::MakeWatchScenarioCells(1.0), seed);
    rig.runtime().SetDischargingDirective(directive);
    if (hint) {
      rig.runtime().SetWorkloadHint(WorkloadHint{Hours(9.0), Watts(0.70), Hours(1.0)});
    }
    SmartwatchDayConfig day;
    day.seed = seed;  // Vary the workload itself, not just measurement noise.
    SimConfig config;
    config.tick = Seconds(10.0);
    config.runtime_period = Minutes(10.0);
    Simulator sim(&rig.runtime(), config);
    return sim.Run(MakeSmartwatchDayTrace(day));
  };
}

MonteCarloResult RunPolicy(double directive, bool hint, int runs, int jobs) {
  MonteCarloOptions options;
  options.base_seed = 1000;
  options.jobs = jobs;
  return RunMonteCarlo(MakeWatchScenario(directive, hint), runs, options);
}

double TimeSweep(int runs, int jobs) {
  sdb::obs::Stopwatch stopwatch;
  (void)RunPolicy(1.0, true, runs, jobs);
  return stopwatch.ElapsedSeconds();
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = sdb::bench::ParseJobs(argc, argv);
  int runs = sdb::bench::ParseIntFlag(argc, argv, "runs", 24);
  int reps = sdb::bench::ParseIntFlag(argc, argv, "reps", 3);
  bool speedup = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--speedup") == 0) {
      speedup = true;
    }
  }

  PrintBanner(std::cout, "Monte-Carlo: smart-watch day across " + std::to_string(runs) +
                             " workload seeds (" + std::to_string(jobs) + " jobs)");

  struct Row {
    const char* name;
    MonteCarloResult result;
  };
  Row rows[] = {
      {"Reserve (hint)", RunPolicy(1.0, true, runs, jobs)},
      {"RBL-Discharge", RunPolicy(1.0, false, runs, jobs)},
      {"Blend 0.5", RunPolicy(0.5, false, runs, jobs)},
      {"CCB even split", RunPolicy(0.0, false, runs, jobs)},
  };

  TextTable table({"policy", "life mean (h)", "life sigma (h)", "life min (h)",
                   "loss mean (J)", "shortfall runs"});
  for (const Row& row : rows) {
    table.AddRow({row.name, TextTable::Num(row.result.battery_life_h.mean(), 2),
                  TextTable::Num(row.result.battery_life_h.stddev(), 2),
                  TextTable::Num(row.result.battery_life_h.min(), 2),
                  TextTable::Num(row.result.total_loss_j.mean(), 1),
                  std::to_string(row.result.shortfall_runs) + "/" +
                      std::to_string(row.result.runs)});
  }
  table.Print(std::cout);

  // Distribution of the hinted policy's battery life across seeds. The
  // parallel phase only computes per-seed lives; the histogram is filled in
  // seed order afterwards so its contents stay independent of `jobs`.
  {
    Histogram hist(11.0, 12.5, 6);
    ScenarioFn scenario = MakeWatchScenario(1.0, true);
    std::vector<double> lives(static_cast<size_t>(runs), 0.0);
    ThreadPool pool(jobs);
    bench::SweepParallelFor(&pool, runs, [&](int64_t r) {
      SimResult result = scenario(1000 + static_cast<uint64_t>(r));
      lives[static_cast<size_t>(r)] =
          result.first_shortfall.has_value() ? ToHours(*result.first_shortfall)
                                             : ToHours(result.elapsed);
    });
    for (double life : lives) {
      hist.Add(life);
    }
    std::cout << "Reserve-policy battery-life histogram (hours):\n";
    for (int b = 0; b < hist.bins(); ++b) {
      std::cout << "  [" << TextTable::Num(hist.BinLow(b), 2) << ", "
                << TextTable::Num(hist.BinLow(b) + 0.25, 2) << ")  "
                << std::string(hist.BinCount(b), '#') << "\n";
    }
  }

  // ---- MC sweep wall clock (min-of-reps on the hinted policy) ------------
  MonteCarloResult timed;
  double mc_wall_s = sdb::bench::MinOfReps(reps, [&] {
    sdb::obs::Stopwatch stopwatch;
    timed = RunPolicy(1.0, true, runs, jobs);
    return stopwatch.ElapsedSeconds();
  });
  double mc_rate = mc_wall_s > 0.0 ? static_cast<double>(timed.cell_steps) / mc_wall_s : 0.0;
  std::cout << "MC sweep: " << TextTable::Num(mc_wall_s, 3) << " s min-of-" << reps
            << " (" << TextTable::Num(mc_rate / 1e6, 2) << " M cell-steps/s through the "
            << "full rig)\n";

  if (speedup) {
    double serial_s = TimeSweep(runs, /*jobs=*/1);
    double parallel_s = TimeSweep(runs, jobs);
    std::cout << "Sweep wall clock: serial " << TextTable::Num(serial_s, 2) << " s, " << jobs
              << " jobs " << TextTable::Num(parallel_s, 2) << " s  ("
              << TextTable::Num(serial_s / parallel_s, 2) << "x)\n";
  }
  sdb::bench::PrintSweepTelemetry(std::cout, jobs);
  sdb::bench::PrintNote(
      "the Fig. 13 ordering holds in expectation, not just on one trace: the "
      "hinted policy leads on mean and worst-case battery life.");

  sdb::bench::BenchReport report;
  report.bench = "monte_carlo";
  report.git_sha = sdb::bench::GitShaFromEnv();
  report.jobs = jobs;
  report.runs = runs;
  report.reps = reps;
  report.wall_s = mc_wall_s;
  report.AddMetric("mc_cell_steps_per_s", mc_rate);
  report.AddMetric("mc_wall_s", mc_wall_s);
  sdb::Status wrote = sdb::bench::WriteBenchReport(report, sdb::bench::ParseBenchOut(argc, argv));
  if (!wrote.ok()) {
    std::cerr << wrote.message() << "\n";
    return 1;
  }
  return sdb::bench::WriteMetricsJson(sdb::bench::ParseMetricsOut(argc, argv));
}
