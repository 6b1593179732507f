# Documentation checker: README's scenario table (the rows between the
# `scenarios:begin` and `scenarios:end` markers) must repeat what
# `spardl-bench` lists, row for row: the same scenarios in the same order,
# each with the same summary and the same flags.
#
#   spardl-bench line:  name<spaces>summary  (flags: f1, f2)
#   README row:         | `name` | summary | f1, f2 |
#
# Both are reduced to "name | summary | flags" lines and compared as text.
#
# Inputs: -DBENCH=<path to spardl-bench> -DREADME=<path to README.md>

if(NOT DEFINED BENCH OR NOT DEFINED README)
  message(FATAL_ERROR
    "CheckScenariosDocumented.cmake needs -DBENCH=... -DREADME=...")
endif()

execute_process(COMMAND "${BENCH}" RESULT_VARIABLE rc OUTPUT_VARIABLE listing)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "'spardl-bench' with no argument exited ${rc}")
endif()
string(REGEX REPLACE "([a-z0-9_]+) +([^\n]*)  \\(flags: ([^\n]*)\\)\n"
  "\\1 | \\2 | \\3\n" listed "${listing}")

file(READ "${README}" readme)
string(FIND "${readme}" "<!-- scenarios:begin -->" begin)
string(FIND "${readme}" "<!-- scenarios:end -->" end)
if(begin EQUAL -1 OR end LESS begin)
  message(FATAL_ERROR "${README} has no scenarios:begin/end markers")
endif()
math(EXPR length "${end} - ${begin}")
string(SUBSTRING "${readme}" ${begin} ${length} table)
# Keep the body rows: drop the marker, header and separator lines.
string(FIND "${table}" "| --- | --- | --- |\n" body)
if(body EQUAL -1)
  message(FATAL_ERROR "${README}'s scenario table has no header row")
endif()
string(SUBSTRING "${table}" ${body} -1 table)
string(REPLACE "| --- | --- | --- |\n" "" table "${table}")
string(REGEX REPLACE "\\| `([a-z0-9_]+)` \\| ([^\n]*) \\| ([^\n|]*) \\|\n"
  "\\1 | \\2 | \\3\n" documented "${table}")

if(listed STREQUAL "" OR NOT listed STREQUAL documented)
  message(FATAL_ERROR
    "README scenario table differs from 'spardl-bench'.\n"
    "spardl-bench lists:\n${listed}\nREADME documents:\n${documented}")
endif()

string(REGEX MATCHALL "\n" rows "${listed}")
list(LENGTH rows n)
message(STATUS "README documents all ${n} spardl-bench scenarios")
