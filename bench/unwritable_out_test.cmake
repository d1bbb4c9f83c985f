# perf_core_unwritable_out: `perf_core --smoke --out OUT` into a missing
# directory must exit nonzero and name OUT. ctest alone cannot ask for both:
# PASS_REGULAR_EXPRESSION ignores the exit code, and WILL_FAIL inverts it.
#
#   cmake -DPERF_CORE=<binary> -DOUT=<path> -P bench/unwritable_out_test.cmake

execute_process(
  COMMAND ${PERF_CORE} --smoke --out ${OUT}
  RESULT_VARIABLE RC
  OUTPUT_VARIABLE LOG
  ERROR_VARIABLE LOG)
message("${LOG}")
if(RC EQUAL 0)
  message(FATAL_ERROR "perf_core exited 0 with an unwritable --out ${OUT}")
endif()
string(FIND "${LOG}" "${OUT}" AT)
if(AT EQUAL -1)
  message(FATAL_ERROR "perf_core's message does not name ${OUT}")
endif()
