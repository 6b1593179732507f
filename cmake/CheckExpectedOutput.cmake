# Exact output check: runs the command given after `--`, then compares its
# stdout, and every artifact it writes, byte for byte with committed
# expected files. Nothing is normalised or skipped, and stderr (where the
# wall clocks go) is not compared. On a mismatch it prints the first
# differing line of each file, with its line number, and the path of the
# actual output.
#
#   cmake -DEXPECTED=<stem> -DACTUAL=<stem> -P CheckExpectedOutput.cmake
#     -- <program> <arg>...
#
# Stdout goes to `<ACTUAL>.stdout` and is compared with
# `<EXPECTED>.stdout`. Every argument that starts with `<ACTUAL>.` names
# an artifact the command writes, say `<ACTUAL>.metrics.json`, which is
# compared with `<EXPECTED>.metrics.json`. A change that means to move the
# output records it by copying the actual files over the expected ones.

cmake_minimum_required(VERSION 3.20)

foreach(var EXPECTED ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "CheckExpectedOutput.cmake needs -D${var}=...")
  endif()
endforeach()
get_filename_component(expected_dir "${EXPECTED}" DIRECTORY)
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
set(record_step "cp ${actual_dir}/* ${expected_dir}/")

set(command "")
set(suffixes stdout)
set(after_dashes FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  set(arg "${CMAKE_ARGV${i}}")
  if(after_dashes)
    list(APPEND command "${arg}")
    string(FIND "${arg}" "${ACTUAL}." at)
    if(at EQUAL 0)
      string(LENGTH "${ACTUAL}." stem_length)
      string(SUBSTRING "${arg}" ${stem_length} -1 suffix)
      list(APPEND suffixes "${suffix}")
    endif()
  elseif(arg STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(command STREQUAL "")
  message(FATAL_ERROR "CheckExpectedOutput.cmake needs a command after --")
endif()

# A file left by an earlier run must not stand in for one this run failed
# to write.
foreach(suffix IN LISTS suffixes)
  file(REMOVE "${ACTUAL}.${suffix}")
endforeach()
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND ${command}
  OUTPUT_FILE "${ACTUAL}.stdout" RESULT_VARIABLE rc)
if(NOT rc STREQUAL "0")
  list(JOIN command " " shown)
  message(FATAL_ERROR "the command failed (${rc}): ${shown}")
endif()

# Sets `out` to where the texts `expected` and `actual` first differ: the
# line number and column, and that line of each.
function(first_difference expected actual out)
  string(LENGTH "${expected}" expected_length)
  string(LENGTH "${actual}" actual_length)
  set(lo 0)
  set(hi ${expected_length})
  if(actual_length LESS hi)
    set(hi ${actual_length})
  endif()
  # Binary search for the length of the common prefix.
  while(lo LESS hi)
    math(EXPR mid "(${lo} + ${hi} + 1) / 2")
    string(SUBSTRING "${expected}" 0 ${mid} expected_prefix)
    string(SUBSTRING "${actual}" 0 ${mid} actual_prefix)
    string(COMPARE EQUAL "${expected_prefix}" "${actual_prefix}" same)
    if(same)
      set(lo ${mid})
    else()
      math(EXPR hi "${mid} - 1")
    endif()
  endwhile()
  string(SUBSTRING "${expected}" 0 ${lo} prefix)
  string(REGEX REPLACE "[^\n]" "" newlines "${prefix}")
  string(LENGTH "${newlines}" line)
  math(EXPR line "${line} + 1")
  string(FIND "${prefix}" "\n" line_start REVERSE)
  math(EXPR line_start "${line_start} + 1")
  math(EXPR column "${lo} - ${line_start} + 1")
  set(text "line ${line}, column ${column}:")
  foreach(side expected actual)
    string(SUBSTRING "${${side}}" ${line_start} -1 rest)
    string(FIND "${rest}" "\n" line_end)
    string(SUBSTRING "${rest}" 0 ${line_end} line_text)
    if(${side}_length EQUAL line_start)
      set(line_text "<end of file>")
    endif()
    string(SUBSTRING "${side}:   " 0 10 label)
    string(APPEND text "\n  ${label}${line_text}")
  endforeach()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

set(failures "")
set(matched "")
foreach(suffix IN LISTS suffixes)
  set(expected "${EXPECTED}.${suffix}")
  set(actual "${ACTUAL}.${suffix}")
  if(NOT EXISTS "${expected}")
    string(APPEND failures "${expected} does not exist\n")
  elseif(NOT EXISTS "${actual}")
    string(APPEND failures "the run wrote no ${actual}\n")
  else()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files "${expected}" "${actual}"
      RESULT_VARIABLE differ)
    if(differ)
      file(READ "${expected}" expected_text)
      file(READ "${actual}" actual_text)
      first_difference("${expected_text}" "${actual_text}" where)
      string(APPEND failures
        "${actual} differs from ${expected} at ${where}\n")
    else()
      list(APPEND matched "${suffix}")
    endif()
  endif()
endforeach()

if(NOT failures STREQUAL "")
  # Printed as plain text: CMake rewraps the lines of a FATAL_ERROR.
  message("${failures}"
    "A change that means to move this output records it with: "
    "${record_step}")
  message(FATAL_ERROR "the output differs from the expected files")
endif()
list(JOIN matched ", " matched)
message(STATUS "${ACTUAL}: ${matched} match ${EXPECTED}")
