# Benchmark harnesses: one binary per paper table/figure, emitted into
# build/bench/ (kept free of CMake bookkeeping so `for b in build/bench/*`
# runs them all).

# Machine-readable BENCH_*.json report writer, shared by the harnesses and
# unit-tested from tests/bench/.
add_library(sdb_bench_report STATIC ${CMAKE_SOURCE_DIR}/bench/bench_report.cc)
target_link_libraries(sdb_bench_report PUBLIC sdb_util)

function(sdb_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} PRIVATE sdb_os sdb_emu sdb_core sdb_hw sdb_chem sdb_util
    sdb_bench_report)
  set_target_properties(${name} PROPERTIES RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
  # Smoke-test every harness so the figure generators cannot bit-rot.
  add_test(NAME smoke_${name} COMMAND ${name})
endfunction()

sdb_bench(bench_table1_characteristics)
sdb_bench(bench_table2_tradeoffs)
sdb_bench(bench_fig1a_radar)
sdb_bench(bench_fig1b_longevity)
sdb_bench(bench_fig1c_heatloss)
sdb_bench(bench_fig6_hw_micro)
sdb_bench(bench_fig8_battery_curves)
sdb_bench(bench_fig10_model_validation)
sdb_bench(bench_fig11_fastcharge)
sdb_bench(bench_fig12_turbo)
sdb_bench(bench_fig13_smartwatch)
sdb_bench(bench_fig14_twoin1)
sdb_bench(bench_ablations)

sdb_bench(bench_policy_overhead)
target_link_libraries(bench_policy_overhead PRIVATE benchmark::benchmark)
set_tests_properties(smoke_bench_policy_overhead PROPERTIES ENVIRONMENT
  "BENCHMARK_BENCHMARK_MIN_TIME=0.01")
# Keep the perf smoke test quick.
set_property(TEST smoke_bench_policy_overhead PROPERTY TIMEOUT 120)

sdb_bench(bench_optimal_vs_myopic)
sdb_bench(bench_monte_carlo)
sdb_bench(bench_weekly_wear)
sdb_bench(bench_scenario_packs)

# The MC bench doubles as the report-schema smoke: a tiny run emits
# BENCH_monte_carlo.json, then the CI checker validates the schema.
# Fixtures order the pair.
add_test(NAME bench_monte_carlo_json
  COMMAND bench_monte_carlo --runs 2 --reps 1
          --bench-out ${CMAKE_BINARY_DIR}/bench/BENCH_monte_carlo.json)
set_tests_properties(bench_monte_carlo_json PROPERTIES FIXTURES_SETUP bench_mc_json)
add_test(NAME bench_monte_carlo_json_schema
  COMMAND python3 ${CMAKE_SOURCE_DIR}/tools/ci/check_bench_json.py
          ${CMAKE_BINARY_DIR}/bench/BENCH_monte_carlo.json --schema-only)
set_tests_properties(bench_monte_carlo_json_schema PROPERTIES FIXTURES_REQUIRED bench_mc_json)
