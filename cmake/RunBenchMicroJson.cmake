# Runs bench_micro_primitives in JSON mode and refreshes BENCH_micro.json
# at the repo root — the committed perf trajectory. The "baseline" section
# (the pre-optimisation numbers) is preserved verbatim, "latest" always
# mirrors this run, and every run is appended to a "history" array keyed
# by {commit, host} (replacing the last entry when HEAD hasn't moved AND
# the hostname matches, so re-runs of one commit on one machine don't
# spam the trajectory, while runs from different machines coexist). The
# checker gates only same-host entry pairs, so the strict default
# threshold is meaningful: wall-clock numbers from different machines are
# never compared. A v1 artifact's "latest" is migrated into the first
# history entry (no host — never gated against).
#
# Each benchmark's recorded number is the fastest of 50 repetitions, run
# with google-benchmark's random interleaving so a benchmark's samples are
# spread over the whole ~30 s run. On a shared 4-core VM one pass swings
# 30-40% with neighbour load, which fails a 20% gate on unchanged code.
# The best of 50 removes the sub-second swings (12 back-to-back runs
# within 15% in a quiet spell) but not slow phases lasting minutes: in a
# 15-minute soak, 10 of 28 runs still fell more than 20% below the
# reference on some kernel.
#
# Inputs: -DBENCH_BIN=<path> -DOUT_JSON=<path> -DWORK_DIR=<dir>
# Env:    SPARDL_BENCH_MIN_TIME (seconds per repetition, default 0.02).

foreach(var BENCH_BIN OUT_JSON WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "RunBenchMicroJson.cmake needs -D${var}=...")
  endif()
endforeach()

set(min_time "$ENV{SPARDL_BENCH_MIN_TIME}")
if(NOT min_time)
  set(min_time "0.02")
endif()
set(repetitions 50)

set(raw_json "${WORK_DIR}/bench_micro_raw.json")
execute_process(
  COMMAND "${BENCH_BIN}"
    "--benchmark_filter=BM_TopKDense|BM_TopKSparse|BM_MergeSum|BM_SumAll"
    "--benchmark_min_time=${min_time}"
    "--benchmark_repetitions=${repetitions}"
    --benchmark_enable_random_interleaving=true
    --benchmark_report_aggregates_only=true
    --benchmark_format=json
    "--benchmark_out=${raw_json}"
  RESULT_VARIABLE run_result
  OUTPUT_QUIET)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "bench_micro_primitives failed (exit ${run_result})")
endif()

file(READ "${raw_json}" raw)
string(JSON n_benchmarks ERROR_VARIABLE json_err LENGTH "${raw}" benchmarks)
if(json_err OR n_benchmarks EQUAL 0)
  message(FATAL_ERROR
    "bench_micro_primitives produced no benchmark entries: ${json_err}")
endif()

# Distil {name: best items_per_second} out of the "max" aggregates.
set(latest "{}")
math(EXPR last "${n_benchmarks} - 1")
foreach(i RANGE 0 ${last})
  string(JSON aggregate ERROR_VARIABLE aggregate_err
    GET "${raw}" benchmarks ${i} aggregate_name)
  if(aggregate_err OR NOT aggregate STREQUAL "max")
    continue()
  endif()
  string(JSON name GET "${raw}" benchmarks ${i} run_name)
  string(JSON ips ERROR_VARIABLE ips_err
    GET "${raw}" benchmarks ${i} items_per_second)
  if(NOT ips_err)
    string(JSON latest SET "${latest}" "${name}" "${ips}")
  endif()
endforeach()
string(JSON n_latest LENGTH "${latest}")
if(n_latest EQUAL 0)
  message(FATAL_ERROR
    "bench_micro_primitives reported no \"max\" aggregates in ${raw_json}")
endif()

# The history key: HEAD's short hash of the repo holding OUT_JSON
# (detached CI checkouts still resolve; "unknown" outside any repo).
get_filename_component(repo_dir "${OUT_JSON}" DIRECTORY)
execute_process(
  COMMAND git -C "${repo_dir}" rev-parse --short HEAD
  RESULT_VARIABLE git_result
  OUTPUT_VARIABLE commit
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT git_result EQUAL 0 OR commit STREQUAL "")
  set(commit "unknown")
endif()

# The other half of the history key: this machine's hostname (the
# checker's ratio gate only pairs entries whose hosts match).
cmake_host_system_information(RESULT host QUERY HOSTNAME)
if(host STREQUAL "")
  set(host "unknown-host")
endif()

# Merge into the committed artifact, preserving the baseline section.
set(out "{}")
if(EXISTS "${OUT_JSON}")
  file(READ "${OUT_JSON}" out)
  string(JSON schema ERROR_VARIABLE schema_err GET "${out}" schema)
  if(schema_err)
    set(out "{}")
  endif()
endif()
string(JSON baseline ERROR_VARIABLE baseline_err GET "${out}" baseline)
if(baseline_err)
  string(JSON out SET "${out}" baseline "null")
endif()

# History: migrate a v1 artifact's "latest" into the first entry, then
# append this run (or replace the last entry when HEAD hasn't moved and
# the entry came from this machine — a different host's entry for the
# same commit is kept and this run appends after it).
string(JSON history ERROR_VARIABLE history_err GET "${out}" history)
if(history_err)
  set(history "[]")
  string(JSON old_latest ERROR_VARIABLE old_latest_err GET "${out}" latest)
  string(JSON old_schema ERROR_VARIABLE old_schema_err GET "${out}" schema)
  if(NOT old_latest_err AND NOT old_schema_err
     AND old_schema STREQUAL "spardl-bench-micro/1")
    string(JSON history SET "${history}" 0
      "{\"commit\":\"pre-v2\",\"benchmarks\":${old_latest}}")
  endif()
endif()
string(JSON entry SET "{}" commit "\"${commit}\"")
string(JSON entry SET "${entry}" host "\"${host}\"")
string(JSON entry SET "${entry}" benchmarks "${latest}")
string(JSON n_history LENGTH "${history}")
set(slot ${n_history})
if(n_history GREATER 0)
  math(EXPR last_entry "${n_history} - 1")
  string(JSON last_commit ERROR_VARIABLE last_commit_err
    GET "${history}" ${last_entry} commit)
  # Legacy entries carry no host; they never match, so a re-run appends
  # rather than overwriting another machine's (or era's) numbers.
  string(JSON last_host ERROR_VARIABLE last_host_err
    GET "${history}" ${last_entry} host)
  if(NOT last_commit_err AND last_commit STREQUAL "${commit}"
     AND NOT last_host_err AND last_host STREQUAL "${host}")
    set(slot ${last_entry})
  endif()
endif()
string(JSON history SET "${history}" ${slot} "${entry}")

string(JSON out SET "${out}" schema "\"spardl-bench-micro/2\"")
string(JSON out SET "${out}" unit "\"items_per_second\"")
string(JSON out SET "${out}" latest "${latest}")
string(JSON out SET "${out}" history "${history}")
file(WRITE "${OUT_JSON}" "${out}\n")
string(JSON n_history LENGTH "${history}")
message(STATUS "Wrote ${n_latest} benchmark entries to ${OUT_JSON} "
  "(history: ${n_history} entries, HEAD ${commit}, host ${host})")
