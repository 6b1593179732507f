# Usage-error checker for spardl-bench: every bad command line below must
# exit 2 with a usage message on stderr — not abort, not exit 0 after
# running something other than what was asked.
#
# Inputs: -DBENCH=<path to spardl-bench>

if(NOT DEFINED BENCH)
  message(FATAL_ERROR "CheckUsageErrors.cmake needs -DBENCH=...")
endif()

set(cases
  "no_such_scenario"
  "fig8_per_update --topology fattree:2x4"
  "table1_complexity --placement rack"
  "topology_explorer --workers 0"
  "topology_explorer --workers 1"
  "tune_teams --workers 8junk"
  "tune_teams --workers 1"
  "cost_model_explorer abc"
)

foreach(case IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${case}")
  execute_process(COMMAND "${BENCH}" ${argv}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage: spardl-bench")
    message(FATAL_ERROR
      "'spardl-bench ${case}' exited '${rc}', want 2 with a usage "
      "message; stderr:\n${err}")
  endif()
endforeach()

list(LENGTH cases n)
message(STATUS "${n} bad command lines exit 2 with a usage message")
