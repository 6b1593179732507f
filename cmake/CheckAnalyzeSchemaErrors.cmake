# Schema checker for spardl-analyze: it reads only the schemas the library
# writes (`spardl-run-metrics/2`, `spardl-timeseries/1`). A document with
# any other schema, the retired `spardl-run-metrics/1` included, must exit
# 1 and name the schema it wants — not render a table, not exit 0. The
# micro gate's inputs likewise: a history or run broken in any one way
# exits 1 naming the file and the fault.
#
# Inputs: -DANALYZE=<path to spardl-analyze> -DWORK_DIR=<dir for inputs>

foreach(var ANALYZE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "CheckAnalyzeSchemaErrors.cmake needs -D${var}=...")
  endif()
endforeach()

function(expect_rejected flag schema want)
  string(REPLACE "/" "_" stem "${schema}")
  set(path "${WORK_DIR}/analyze_schema_${stem}.json")
  file(WRITE "${path}" "{\"schema\":\"${schema}\",\"runs\":[],\"series\":[]}\n")
  execute_process(COMMAND "${ANALYZE}" ${flag} "${path}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1" OR NOT err MATCHES "has schema '${schema}', want ${want}")
    message(FATAL_ERROR
      "'spardl-analyze ${flag}' on a '${schema}' document exited '${rc}', "
      "want 1 naming ${want}; stdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

expect_rejected(--metrics "spardl-run-metrics/1" "spardl-run-metrics/2")
expect_rejected(--metrics "spardl-timeseries/1" "spardl-run-metrics/2")
expect_rejected(--timeseries "spardl-run-metrics/2" "spardl-timeseries/1")
expect_rejected(--timeseries "spardl-timeseries/0" "spardl-timeseries/1")

set(micro_history [[{"schema":"spardl-bench-micro/2","latest":{"BM_A":1.0},
  "history":[{"commit":"c","host":"h","benchmarks":{"BM_A":1.0}}]}]])
set(micro_run [[{"context":{"host_name":"h"},"benchmarks":[
  {"run_name":"BM_A","aggregate_name":"max","items_per_second":1.0},
  {"run_name":"BM_Reference","aggregate_name":"max","items_per_second":1.0}]}]])

# Breaks the micro `file` (history or run) by replacing `from` with `to`.
function(expect_bad_micro file from to want)
  string(REPLACE "${from}" "${to}" micro_${file} "${micro_${file}}")
  foreach(doc history run)
    file(WRITE "${WORK_DIR}/micro_${doc}.json" "${micro_${doc}}")
  endforeach()
  execute_process(COMMAND "${ANALYZE}"
      --micro-run "${WORK_DIR}/micro_run.json"
      --micro-history "${WORK_DIR}/micro_history.json"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "1" OR NOT err MATCHES "/micro_${file}\\.json' ${want}")
    message(FATAL_ERROR "a micro ${file} with '${to}' for '${from}' exited "
      "'${rc}', want 1 and '${want}'; stdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

expect_bad_micro(history [["spardl-bench-micro/2"]] [["spardl-bench-micro/1"]]
  "has schema 'spardl-bench-micro/1', want spardl-bench-micro/2")
expect_bad_micro(history [["latest":{"BM_A":1.0}]] [["latest":{}]]
  "has no 'latest' benchmarks")
expect_bad_micro(history [["benchmarks":{"BM_A":1.0}]]
  [["benchmarks":{"BM_A":0.0}]]
  "history\\[0\\]\\.benchmarks\\['BM_A'\\] is not a positive number")
expect_bad_micro(history [["commit":"c",]] "" "history\\[0\\] has no commit")
expect_bad_micro(history [["history":]] [["entries":]]
  "has no 'history' entries")
expect_bad_micro(run [["max"]] [["mean"]] "has no \"max\" aggregates")
expect_bad_micro(run [["BM_Reference"]] [["BM_B"]]
  "has no \"max\" aggregate of BM_Reference")

message(STATUS "4 documents with a foreign schema and 7 broken micro-gate "
  "inputs exit 1 naming the fault")
