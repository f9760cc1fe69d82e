# ctest helper: `scenario_runner --run=quantised/fair-epoch60 --small
# --shards=4` must exit non-zero and name --shards as an unused flag.
# Usage: cmake -DRUNNER=<path to scenario_runner> -P expect_unused_flag.cmake
execute_process(
  COMMAND ${RUNNER} --run=quantised/fair-epoch60 --small --shards=4
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "scenario_runner accepted the unused flag --shards=4")
endif()
if(NOT err MATCHES "unknown or unused flag --shards")
  message(FATAL_ERROR "scenario_runner failed without naming --shards:\n${err}")
endif()
