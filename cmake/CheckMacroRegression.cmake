# Macro perf-regression gate over a `spardl-run-metrics/2` artifact from
# a *deterministic* (event-engine) smoke run: every run's simulated
# per-update time — makespan_seconds / UPDATES — must stay under a pinned
# bound. Because the bound is on simulated time, it is machine-independent;
# tripping it means the cost model, the collective schedule, or the
# topology charging genuinely got slower.
#
# Inputs: -DMETRICS_JSON=<path> -DUPDATES=<count>
#         -DMAX_UPDATE_MICROS=<bound, simulated microseconds>

foreach(var METRICS_JSON UPDATES MAX_UPDATE_MICROS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "CheckMacroRegression.cmake needs -D${var}=...")
  endif()
endforeach()
if(NOT EXISTS "${METRICS_JSON}")
  message(FATAL_ERROR "${METRICS_JSON} does not exist")
endif()

if(NOT MAX_UPDATE_MICROS MATCHES "^[0-9]+$" OR MAX_UPDATE_MICROS EQUAL 0)
  message(FATAL_ERROR
    "macro gate bound '${MAX_UPDATE_MICROS}' must be a positive integer "
    "(simulated microseconds per update)")
endif()
if(NOT UPDATES MATCHES "^[0-9]+$" OR UPDATES EQUAL 0)
  message(FATAL_ERROR "-DUPDATES='${UPDATES}' must be a positive integer")
endif()

# Converts a positive decimal/scientific seconds value into integer
# simulated microseconds (truncated). CMake's math(EXPR) cannot parse
# exponents or fractions, so this works on the digit string directly.
function(seconds_to_micros value out_micros)
  set(base "${value}")
  set(exp 0)
  if(base MATCHES "^([0-9.]+)[eE]([-+]?)0*([0-9]+)$")
    set(base "${CMAKE_MATCH_1}")
    set(sign "${CMAKE_MATCH_2}")
    set(exp "${CMAKE_MATCH_3}")
    if(sign STREQUAL "-" AND NOT exp EQUAL 0)
      math(EXPR exp "0 - ${exp}")
    endif()
  endif()
  if(base MATCHES "^([0-9]*)\\.([0-9]*)$")
    set(digits "${CMAKE_MATCH_1}${CMAKE_MATCH_2}")
    string(LENGTH "${CMAKE_MATCH_2}" frac_len)
    math(EXPR exp "${exp} - ${frac_len}")
  else()
    set(digits "${base}")
  endif()
  string(REGEX REPLACE "^0+" "" digits "${digits}")
  if(digits STREQUAL "")
    set(${out_micros} 0 PARENT_SCOPE)
    return()
  endif()
  math(EXPR shift "${exp} + 6")
  if(shift GREATER_EQUAL 0)
    string(REPEAT "0" ${shift} zeros)
    set(digits "${digits}${zeros}")
  else()
    math(EXPR drop "0 - ${shift}")
    string(LENGTH "${digits}" len)
    if(drop GREATER_EQUAL len)
      set(digits 0)
    else()
      math(EXPR keep "${len} - ${drop}")
      string(SUBSTRING "${digits}" 0 ${keep} digits)
    endif()
  endif()
  string(LENGTH "${digits}" len)
  if(len GREATER 15)
    message(FATAL_ERROR
      "macro gate: '${value}' seconds is absurdly large (>1e9 s)")
  endif()
  set(${out_micros} "${digits}" PARENT_SCOPE)
endfunction()

file(READ "${METRICS_JSON}" metrics)
string(JSON schema ERROR_VARIABLE err GET "${metrics}" schema)
if(err OR NOT schema STREQUAL "spardl-run-metrics/2")
  message(FATAL_ERROR
    "${METRICS_JSON} malformed: bad schema '${schema}' (${err})")
endif()
string(JSON n_runs ERROR_VARIABLE err LENGTH "${metrics}" runs)
if(err OR n_runs EQUAL 0)
  message(FATAL_ERROR "${METRICS_JSON} has no runs (${err})")
endif()

math(EXPR last_run "${n_runs} - 1")
foreach(i RANGE 0 ${last_run})
  string(JSON label ERROR_VARIABLE err GET "${metrics}" runs ${i} label)
  string(JSON makespan ERROR_VARIABLE err
    GET "${metrics}" runs ${i} makespan_seconds)
  if(err OR NOT makespan MATCHES "^[0-9.]+([eE][-+]?[0-9]+)?$")
    message(FATAL_ERROR
      "${METRICS_JSON} runs[${i}] makespan_seconds '${makespan}' "
      "unreadable (${err})")
  endif()
  seconds_to_micros("${makespan}" total_micros)
  math(EXPR per_update "${total_micros} / ${UPDATES}")
  if(per_update GREATER MAX_UPDATE_MICROS)
    message(FATAL_ERROR
      "macro gate: run '${label}' takes ${per_update} simulated "
      "microseconds per update (> bound ${MAX_UPDATE_MICROS}); the simulated "
      "path got slower — re-pin the bound's cache variable "
      "(SPARDL_MACRO_MAX_UPDATE_MICROS or SPARDL_LARGE_P_MAX_UPDATE_MICROS) "
      "only for a deliberate model change")
  endif()
  message(STATUS "macro gate: '${label}' ${per_update} us/update "
    "<= ${MAX_UPDATE_MICROS}")
endforeach()
