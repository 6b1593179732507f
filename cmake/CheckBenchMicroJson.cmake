# Tiny perf-artifact checker: fails if BENCH_micro.json is missing, not
# valid JSON, carries the wrong schema, has an empty/non-positive
# "latest" section, or has a malformed "history" array — and then gates
# on the perf trajectory itself: the newest history entry must not
# regress more than SPARDL_BENCH_GATE_PCT percent (default 20) in
# items/second against the most recent earlier entry *from the same
# host* on any benchmark both entries carry. Host keying is what lets
# the default stay strict: wall-clock numbers from different machines
# are never compared, so a laptop entry cannot "regress" against a CI
# runner's. When the newest entry has no same-host predecessor (first
# run on a machine, fresh CI runner, legacy host-less entries) the ratio
# gate is skipped with an explicit STATUS line.
# Input: -DJSON_FILE=<path>.

if(NOT DEFINED JSON_FILE)
  message(FATAL_ERROR "CheckBenchMicroJson.cmake needs -DJSON_FILE=...")
endif()
if(NOT EXISTS "${JSON_FILE}")
  message(FATAL_ERROR "${JSON_FILE} does not exist")
endif()

file(READ "${JSON_FILE}" content)
if(content STREQUAL "")
  message(FATAL_ERROR "${JSON_FILE} is empty")
endif()

string(JSON schema ERROR_VARIABLE err GET "${content}" schema)
if(err OR NOT schema STREQUAL "spardl-bench-micro/2")
  message(FATAL_ERROR
    "${JSON_FILE} malformed: bad schema '${schema}' (${err})")
endif()

# Positive decimal or scientific-notation number (CMake's numeric
# comparisons don't parse exponents, so validate the shape by regex).
function(check_benchmarks_positive path_label)
  string(JSON n ERROR_VARIABLE err LENGTH "${content}" ${ARGN})
  if(err OR n EQUAL 0)
    message(FATAL_ERROR
      "${JSON_FILE} has no '${path_label}' benchmarks (${err})")
  endif()
  math(EXPR last "${n} - 1")
  foreach(i RANGE 0 ${last})
    string(JSON name ERROR_VARIABLE err MEMBER "${content}" ${ARGN} ${i})
    if(err)
      message(FATAL_ERROR
        "${JSON_FILE} ${path_label}[${i}] unreadable: ${err}")
    endif()
    string(JSON ips ERROR_VARIABLE err GET "${content}" ${ARGN} "${name}")
    if(err OR NOT ips MATCHES "^[0-9.]+([eE][-+]?[0-9]+)?$"
       OR ips MATCHES "^0+(\\.0*)?$")
      message(FATAL_ERROR
        "${JSON_FILE} ${path_label}['${name}'] = '${ips}' is not positive "
        "(${err})")
    endif()
  endforeach()
  set(checked_count ${n} PARENT_SCOPE)
endfunction()

check_benchmarks_positive("latest" latest)
set(n_latest ${checked_count})

string(JSON n_history ERROR_VARIABLE err LENGTH "${content}" history)
if(err OR n_history EQUAL 0)
  message(FATAL_ERROR "${JSON_FILE} has no 'history' entries (${err})")
endif()
math(EXPR last_entry "${n_history} - 1")
foreach(i RANGE 0 ${last_entry})
  string(JSON commit ERROR_VARIABLE err GET "${content}" history ${i} commit)
  if(err OR commit STREQUAL "")
    message(FATAL_ERROR
      "${JSON_FILE} history[${i}] has no commit key (${err})")
  endif()
  check_benchmarks_positive("history[${i}].benchmarks"
    history ${i} benchmarks)
endforeach()

message(STATUS "${JSON_FILE}: ${n_latest} benchmark entries, "
  "${n_history} history commits OK")

# ---------------------------------------------------------------------------
# Ratio gate: newest history entry vs the one before it.
#
# CMake's math(EXPR) is 64-bit integer only and its comparisons don't
# parse exponents, so each items/second value is normalised to a
# 9-significant-digit integer mantissa plus a base-10 exponent, and the
# 'new >= prev * (100-pct)/100' test runs on exponent-aligned integers.

# value ~= mantissa * 10^exp, mantissa in [10^8, 10^9) (exactly 9
# digits). Caller guarantees value is positive (validated above).
function(parse_scaled value out_mant out_exp)
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
  string(LENGTH "${digits}" len)
  if(len GREATER 9)
    math(EXPR extra "${len} - 9")
    string(SUBSTRING "${digits}" 0 9 digits)
    math(EXPR exp "${exp} + ${extra}")
  elseif(len LESS 9)
    math(EXPR pad "9 - ${len}")
    string(REPEAT "0" ${pad} zeros)
    set(digits "${digits}${zeros}")
    math(EXPR exp "${exp} - ${pad}")
  endif()
  set(${out_mant} "${digits}" PARENT_SCOPE)
  set(${out_exp} "${exp}" PARENT_SCOPE)
endfunction()

# The machine's load when the gate fails: a loaded host measures low, so
# a regression reported next to a high load average is suspect.
set(load_note "")
if(EXISTS /proc/loadavg)
  file(READ /proc/loadavg loadavg)
  string(STRIP "${loadavg}" loadavg)
  set(load_note "; /proc/loadavg at check time: ${loadavg}")
endif()

# Fails when `new` < `prev` * (100 - pct) / 100 (items/second: lower is
# worse).
function(check_ratio name new prev pct)
  parse_scaled("${new}" new_mant new_exp)
  parse_scaled("${prev}" prev_mant prev_exp)
  math(EXPR diff "${new_exp} - ${prev_exp}")
  if(diff GREATER 1)
    return()  # new is at least ~10x prev: no regression possible
  endif()
  if(diff LESS -1)
    message(FATAL_ERROR
      "${JSON_FILE} perf gate: '${name}' collapsed from ${prev} to ${new} "
      "items/s (more than 10x below the previous history entry"
      "${load_note})")
  endif()
  # |diff| <= 1: align exponents, then compare new*100 vs prev*(100-pct).
  # Mantissas are < 1e9, so the largest product is < 1e12 — well inside
  # 64-bit math(EXPR).
  math(EXPR lhs "${new_mant} * 100")
  math(EXPR rhs "${prev_mant} * (100 - ${pct})")
  if(diff EQUAL 1)
    math(EXPR lhs "${lhs} * 10")
  elseif(diff EQUAL -1)
    math(EXPR rhs "${rhs} * 10")
  endif()
  if(lhs LESS rhs)
    message(FATAL_ERROR
      "${JSON_FILE} perf gate: '${name}' regressed more than ${pct}% "
      "(${prev} -> ${new} items/s vs the previous history entry; set "
      "SPARDL_BENCH_GATE_PCT to tune the threshold${load_note})")
  endif()
endfunction()

set(gate_pct "$ENV{SPARDL_BENCH_GATE_PCT}")
if(gate_pct STREQUAL "")
  set(gate_pct 20)
endif()
if(NOT gate_pct MATCHES "^[0-9]+$" OR gate_pct GREATER 99)
  message(FATAL_ERROR
    "SPARDL_BENCH_GATE_PCT='${gate_pct}' must be an integer in [0, 99]")
endif()

# The comparison pair: the newest entry vs the most recent earlier entry
# recorded on the same host. Entries without a host key (pre-host-keying
# artifacts, the migrated "pre-v2" entry) are unmatchable by design.
math(EXPR newest "${n_history} - 1")
string(JSON new_host ERROR_VARIABLE new_host_err
  GET "${content}" history ${newest} host)
set(previous -1)
if(NOT new_host_err AND NOT new_host STREQUAL "")
  math(EXPR last_prior "${n_history} - 2")
  if(last_prior GREATER_EQUAL 0)
    # Forward scan keeping the last match = the most recent same-host
    # entry (foreach(RANGE) has no portable downward form).
    foreach(i RANGE 0 ${last_prior})
      string(JSON prev_host ERROR_VARIABLE prev_host_err
        GET "${content}" history ${i} host)
      if(NOT prev_host_err AND prev_host STREQUAL "${new_host}")
        set(previous ${i})
      endif()
    endforeach()
  endif()
endif()

if(new_host_err OR new_host STREQUAL "")
  message(STATUS "${JSON_FILE}: ratio gate skipped — newest history "
    "entry carries no host key")
elseif(previous EQUAL -1)
  message(STATUS "${JSON_FILE}: ratio gate skipped — no earlier history "
    "entry from host '${new_host}'")
else()
  string(JSON n_new LENGTH "${content}" history ${newest} benchmarks)
  math(EXPR last_bench "${n_new} - 1")
  set(gated 0)
  foreach(i RANGE 0 ${last_bench})
    string(JSON name MEMBER "${content}" history ${newest} benchmarks ${i})
    string(JSON new_ips GET "${content}" history ${newest} benchmarks
      "${name}")
    string(JSON prev_ips ERROR_VARIABLE prev_err
      GET "${content}" history ${previous} benchmarks "${name}")
    if(prev_err)
      message(STATUS "${JSON_FILE}: '${name}' is new in history[${newest}] "
        "— no previous entry to gate against")
      continue()
    endif()
    check_ratio("${name}" "${new_ips}" "${prev_ips}" "${gate_pct}")
    math(EXPR gated "${gated} + 1")
  endforeach()
  message(STATUS "${JSON_FILE}: ratio gate OK — ${gated} benchmark(s) "
    "within ${gate_pct}% of history[${previous}] (host '${new_host}')")
endif()
