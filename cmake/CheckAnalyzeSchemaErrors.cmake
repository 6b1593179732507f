# Schema checker for spardl-analyze: it reads only the schemas the library
# writes (`spardl-run-metrics/2`, `spardl-timeseries/1`). A document with
# any other schema, the retired `spardl-run-metrics/1` included, must exit
# 1 and name the schema it wants — not render a table, not exit 0.
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

message(STATUS "4 documents with a foreign schema exit 1 naming the wanted one")
