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
# (history_hash_test, cache_differential_test, bench_cache_smoke), which
# the tsan leg exercises with pool workers reading the shared execution
# cache concurrently, and the serve-daemon suite
# (serve_protocol_test, server_test, serve_concurrency_test,
# serve_smoke_test), whose smoke test the tsan leg runs against the real
# `dfence serve` binary: submit / dispatcher-slot / transport threads
# plus SIGTERM drain under TSan. serve_concurrency_test is the
# concurrent-dispatcher gate on that leg — multi-slot slice leases,
# sharded-cache locking and the interleaved byte-identity differential
# all execute under TSan (bench_serve_smoke rides the default leg and
# exercises the same paths through the real binary). The
# flight-recorder suite rides along the same way: the
# flight_recorder_differential_test read-only gate and bench_obs_smoke
# (obs_overhead --smoke, which validates BENCH_obs.json; the <=2%
# recorder-off overhead budget is enforced by the full `obs_overhead`
# run, not here — timing bars are meaningless under sanitizers). The
# fuzz suite (fuzz_determinism_test, litmus_corpus_test,
# fuzz_serve_test, bench_fuzz_smoke) is tier1 too: fuzz_serve_test
# hammers the multi-slot dispatcher on the tsan leg, and
# bench_fuzz_smoke (fuzz_campaign --smoke) hard-fails on any
# distinct-fingerprint drift across the direct/warm/serve postures —
# that gate is deterministic, so it holds at smoke sizes and under
# sanitizers alike (scenarios/s bars are full-run only).
#
# After the three workflows, the repair-selection tests
# (MinModelDifferentialTest, MinModelPropertyTest, MinModelTest), the
# serve-daemon tests (Server*), the daemon smoke tests (ServeSmoke*) and
# the bench smoke gates (bench_*_smoke) run 20 more times on the default
# build (`ctest --repeat until-fail:20`; "Sat" matches only tests that
# contain it in passing, such as ClientsSatisfySpecUnderSC). The
# differential is seeded, both deadline tests stall their executions
# with a fault plan, and the bench smoke gates check deterministic
# invariants (bench_exec_smoke's one timing bar, specialized vs generic
# dispatch, is judged against a noise floor it measures itself), so any
# failure there is a defect, not noise.

foreach(preset IN ITEMS verify-default verify-sanitize verify-tsan)
  message(STATUS "==== workflow: ${preset} ====")
  execute_process(
    COMMAND ${CMAKE_COMMAND} --workflow --preset ${preset}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "workflow ${preset} failed (exit ${rc})")
  endif()
endforeach()
set(repeat_re "Sat|MinModel|Server|ServeSmoke|bench_.*_smoke")
message(STATUS "==== repeat: ${repeat_re} x20 (default build) ====")
execute_process(
  COMMAND ${CMAKE_CTEST_COMMAND} --preset default
          --repeat until-fail:20 -R "${repeat_re}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "repeated ${repeat_re} tests failed (exit ${rc})")
endif()
message(STATUS "verify-all: all three workflows and the repeats passed")
