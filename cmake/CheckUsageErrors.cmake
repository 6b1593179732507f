# Usage-error checker for the command-line programs: every bad command line
# below must exit 2 with a usage message on stderr — not abort, not read a
# file, not exit 0 after running something other than what was asked.
#
# Inputs: -DPROGRAM=<path to the program>
#         -DNAME=<spardl-bench|spardl-analyze>, which picks the cases

if(NOT DEFINED PROGRAM OR NOT DEFINED NAME)
  message(FATAL_ERROR "CheckUsageErrors.cmake needs -DPROGRAM=... -DNAME=...")
endif()

if(NAME STREQUAL "spardl-bench")
  set(cases
    "no_such_scenario"
    "fig8_per_update --topology fattree:2x4"
    "table1_complexity --placement rack"
    "topology_explorer --workers 0"
    "topology_explorer --workers 1"
    "tune_teams --workers 8junk"
    "tune_teams --workers 1"
    "cost_model_explorer abc"
    "fig15_epoch_stability --topology nosuchfabric"
    "compare_algorithms --backend thread"
    "fig7_gradient_count --workers 5"
    "fig7_gradient_count --iterations 1"
  )
elseif(NAME STREQUAL "spardl-analyze")
  set(cases
    ""
    "metrics.json"
    "--metrics metrics.json timeseries.json"
    "--no-such-flag"
    "--micro-run"
    "--micro-run run.json"
    "--micro-run run.json --micro-history"
    "--micro-history BENCH_micro.json --micro-out out.json"
  )
else()
  message(FATAL_ERROR "CheckUsageErrors.cmake has no cases for '${NAME}'")
endif()

foreach(case IN LISTS cases)
  separate_arguments(argv UNIX_COMMAND "${case}")
  execute_process(COMMAND "${PROGRAM}" ${argv}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "usage: ${NAME}")
    message(FATAL_ERROR
      "'${NAME} ${case}' exited '${rc}', want 2 with a usage "
      "message; stderr:\n${err}")
  endif()
endforeach()

list(LENGTH cases n)
message(STATUS "${n} bad command lines exit 2 with a usage message")
