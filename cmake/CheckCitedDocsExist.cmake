# Documentation checker: every `*.md` file that a source under src/ or
# bench/, or an expected output under tests/expected/, names must exist in
# the repository, so no comment or printed note points at a missing
# file. A name is resolved from the repository root (`README.md`,
# `benchmark/README.md`).
#
# Inputs: -DROOT=<repository root>

if(NOT DEFINED ROOT)
  message(FATAL_ERROR "CheckCitedDocsExist.cmake needs -DROOT=...")
endif()

file(GLOB_RECURSE files LIST_DIRECTORIES false
  "${ROOT}/src/*" "${ROOT}/bench/*" "${ROOT}/tests/expected/*")
set(named 0)
set(missing "")
foreach(file IN LISTS files)
  file(STRINGS "${file}" lines REGEX "\\.md")
  foreach(line IN LISTS lines)
    # The trailing space lets a name end the line; the character after a
    # name must not continue it (`.mdx` names no Markdown file).
    string(REGEX MATCHALL "[A-Za-z0-9_./-]+\\.md[^A-Za-z0-9_]"
      names "${line} ")
    foreach(name IN LISTS names)
      string(REGEX REPLACE ".$" "" name "${name}")
      math(EXPR named "${named} + 1")
      if(NOT EXISTS "${ROOT}/${name}")
        file(RELATIVE_PATH where "${ROOT}" "${file}")
        string(APPEND missing "  ${where} names ${name}\n")
      endif()
    endforeach()
  endforeach()
endforeach()

if(NOT missing STREQUAL "")
  message(FATAL_ERROR
    "Markdown files named but not in the repository:\n${missing}")
endif()
message(STATUS
  "${named} Markdown names under src/, bench/ and tests/expected/, "
  "all in the repository")
