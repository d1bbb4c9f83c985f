# A traced perfbench run must be correct and spend at most MAX simulator
# events per packet. `sim.events_per_pkt` is a count, so it repeats exactly
# for a workload and seed. This keeps the traced path and its per-layer
# counts in the suite, and fails a change that puts back per-hop events.
#
#   cmake -DPERFBENCH=<binary> -DWORKLOAD=<name> -DMAX=<events/pkt>
#         -P tests/events_per_pkt_test.cmake

execute_process(
  COMMAND ${PERFBENCH} --workload ${WORKLOAD} --seed 1 --seconds 1 --trace 1
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE log
  ERROR_VARIABLE err)
message("${log}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perfbench exited ${rc}: ${err}")
endif()
# The result object is the output's last line.
string(STRIP "${log}" log)
string(FIND "${log}" "\n" at REVERSE)
math(EXPR at "${at} + 1")
string(SUBSTRING "${log}" ${at} -1 result)
string(JSON correct GET "${result}" correct)
if(NOT correct)
  message(FATAL_ERROR "${WORKLOAD}: the result is not correct")
endif()
string(JSON events GET "${result}" metrics sim.events_per_pkt value)
if(events GREATER MAX)
  message(FATAL_ERROR "${WORKLOAD}: sim.events_per_pkt ${events} exceeds ${MAX}")
endif()
message("${WORKLOAD}: sim.events_per_pkt ${events} <= ${MAX}")
