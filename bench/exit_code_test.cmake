# `perf_core ARGS` must exit with code RC and print EXPECT (a usage error
# names the value it rejects). ctest alone cannot ask for both:
# PASS_REGULAR_EXPRESSION ignores the exit code, and WILL_FAIL inverts it.
#
#   cmake -DPERF_CORE=<binary> "-DARGS=<arg>;<arg>..." -DRC=<code> "-DEXPECT=<text>"
#         -P bench/exit_code_test.cmake

execute_process(
  COMMAND ${PERF_CORE} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE log
  ERROR_VARIABLE log)
message("${log}")
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "perf_core ${ARGS} exited ${rc}, expected ${RC}")
endif()
string(FIND "${log}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "perf_core's output does not name ${EXPECT}")
endif()
