# Re-records the tracked perf artifacts from one perf_core run:
#
#   bench/perf_baseline.h   (--baseline-header, commit auto-filled)
#   BENCH_core.json         (every section)
#
# Invoked by the `bench-record` target with -DSRC_DIR / -DBENCH_BIN_DIR.
# The gated numbers are wall-clock rates, so nothing else should share the
# box while it runs.

foreach(var SRC_DIR BENCH_BIN_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench/record.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND git -C ${SRC_DIR} rev-parse --short HEAD
  OUTPUT_VARIABLE COMMIT
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE GIT_RC)
if(NOT GIT_RC EQUAL 0)
  set(COMMIT "unrecorded")
endif()

set(OUT_JSON ${SRC_DIR}/BENCH_core.json)

message(STATUS "bench-record: perf_core @ ${COMMIT}")
execute_process(
  COMMAND ${BENCH_BIN_DIR}/perf_core --out ${OUT_JSON}
          --baseline-header ${SRC_DIR}/bench/perf_baseline.h --commit ${COMMIT}
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "perf_core failed (${RC})")
endif()

message(STATUS "bench-record: done — ${OUT_JSON} and bench/perf_baseline.h updated.")
message(STATUS "Rebuild to compile the new baseline into the perf gates.")
