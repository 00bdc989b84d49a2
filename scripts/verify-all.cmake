# verify-all: run the default, sanitize and tsan verification workflows
# in sequence, stopping at the first failure.
#
#   cmake -P scripts/verify-all.cmake
#
# A CMake workflow preset cannot chain steps across different configure
# presets, so "verify-all" is this driver over the three single-preset
# workflows (verify-default, verify-sanitize, verify-tsan) defined in
# CMakePresets.json. Run from the repository root. Everything labelled
# tier1 rides along automatically — including the result-cache suite
# (history_hash_test, cache_differential_test), which the tsan leg
# exercises with pool workers reading the shared execution cache
# concurrently, and the serve-daemon suite (serve_protocol_test,
# server_test, serve_concurrency_test, serve_smoke_test), whose smoke
# tests the tsan leg runs against the real `dfence serve` binary, over
# pipes and over a unix socket through the tools/dfence_client library:
# submit / dispatcher-slot / transport threads plus SIGTERM drain under
# TSan. serve_concurrency_test is the concurrent-dispatcher gate on that
# leg — slots running on their own pool slices, concurrent requests
# sharing the one execution cache (ExecCacheTest.ConcurrentRunsShareOneCache
# does the same from four threads on their own pools) and the interleaved
# byte-identity differential all execute under TSan. The
# flight-recorder suite rides along the same way: the
# flight_recorder_differential_test read-only gate and bench_obs_smoke
# (obs_overhead --smoke, which validates BENCH_obs.json; the <=2%
# recorder-off and <=25% recorder-on overhead budgets are enforced by
# the full `obs_overhead` run, not here — timing bars are meaningless
# under sanitizers), which the tsan leg also runs at a pool width of
# 33 (past any 32-entry per-worker table). The
# fuzz suite (fuzz_determinism_test, litmus_corpus_test,
# fuzz_serve_test, bench_fuzz_smoke) is tier1 too: fuzz_serve_test
# hammers the multi-slot dispatcher on the tsan leg, and
# bench_fuzz_smoke (fuzz_campaign --smoke) hard-fails on any
# distinct-fingerprint drift across the direct/warm/serve postures —
# that gate is deterministic, so it holds at smoke sizes and under
# sanitizers alike (scenarios/s bars are full-run only).
#
# After the three workflows, the repair-selection tests
# (MinimalModelsTest, MinModelDifferentialTest, MinModelPropertyTest,
# MinModelTest), the serve-daemon tests (Server*), the concurrent
# dispatcher tests (ServeConcurrency*, one of which races a deadline
# against a stalled request on the other slot), the daemon smoke
# tests (ServeSmoke*), the bench smoke gates (bench_*_smoke:
# bench_exec_smoke, bench_obs_smoke, bench_fuzz_smoke) and the suites
# that reuse state across requests — stored rounds in a shared cache
# (CacheDifferentialTest), pool slices across widths
# (ParallelDeterminismTest), round slot storage across requests
# (SliceReuseTest) and stored repair steps replayed by warm requests
# (ExecCacheTest, ExecCacheWarmCellTest) — run 20 more times on the
# default build (`ctest --repeat until-fail:20`). The
# differential is seeded, every deadline and wall-budget test stalls its
# executions with a fault plan, and every bench smoke gate checks
# deterministic invariants only (schemas, step counts, fingerprint sets;
# no timing bar), so any failure there is a defect, not noise.

foreach(preset IN ITEMS verify-default verify-sanitize verify-tsan)
  message(STATUS "==== workflow: ${preset} ====")
  execute_process(
    COMMAND ${CMAKE_COMMAND} --workflow --preset ${preset}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "workflow ${preset} failed (exit ${rc})")
  endif()
endforeach()
set(repeat_re "MinimalModels|MinModel|Server|ServeConcurrency|ServeSmoke|bench_.*_smoke|CacheDifferential|ParallelDeterminism|SliceReuse|ExecCache")
message(STATUS "==== repeat: ${repeat_re} x20 (default build) ====")
execute_process(
  COMMAND ${CMAKE_CTEST_COMMAND} --preset default
          --repeat until-fail:20 -R "${repeat_re}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "repeated ${repeat_re} tests failed (exit ${rc})")
endif()
message(STATUS "verify-all: all three workflows and the repeats passed")
