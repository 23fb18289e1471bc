# End-to-end exercise of the hybridtor CLI, run as a CTest:
#   1. `generate` into a fresh (nested, not pre-created) temp dir — exit 0,
#      all three artifacts present.
#   2. `census` on the artifacts — exit 0, key report lines present; `inspect`
#      on the same rib.mrt counts the same distinct ASes, prefixes and AS
#      links (two independent counts of one RIB, each the other's oracle).
#   3. `census --jobs 4` — byte-identical output to --jobs 1.
#   4. `census` on a missing rib.mrt — non-zero exit, diagnostic names the file.
#   5. `census` on a truncated rib.mrt — non-zero exit, no partial report
#      (skipped on hosts without /bin/sh, which is what clips the file).
#   6. Snapshot store loop: generate a second synthetic Internet with a
#      different seed, census both with `--snapshot-out`; snapshot files are
#      byte-identical across --jobs values; `diff` of the two seeds reports
#      nonzero churn; `diff` of a snapshot against itself reports zero churn;
#      `query` resolves a known link (from truth.csv) in pair and
#      neighbor-list mode; `diff`/`query` on a truncated snapshot fail
#      without partial output; `diff`/`query` on a snapshot patched to
#      format v1 exit 1 with the `census --snapshot-out` hint on stderr and
#      nothing on stdout (both skipped without /bin/sh, which does the
#      clipping and patching).  The second census spells its option in the
#      `--snapshot-out=<file>` form.
#   7. `generate` argument validation: a garbage seed ("12x") and a trailing
#      positional argument are both rejected.
#   8. Unknown options ("--frobnicate", "-x", the retired "--no-stream") and
#      the retired `snapshot-upgrade` verb are rejected with a usage error
#      instead of being swallowed as positional file arguments; so is the
#      retired "--ring-capacity" on `follow` and `serve --follow` (exit 2);
#      a value option with a bad `=` value or no value at all exits 2 with
#      its diagnostic.
#   9. `query --json` emits the machine-readable shape (the same bytes the
#      query daemon serves; byte-level identity is proven by
#      test_server_e2e), in pair, neighbor, and not-found modes; --json on
#      another subcommand is rejected.
#  10. `follow` over a generated update stream (`generate --update-events`)
#      — exit 0, one line per cut epoch and the closing `stream done:`
#      summary; the same command on a clipped updates file exits non-zero
#      with the decode error on stderr (skipped without /bin/sh, as in 5).
#  11. `census` and `follow` with a directory as the IRR path exit 1, name
#      the path on stderr and print nothing on stdout, instead of running
#      on an empty community dictionary.
#
# Invoked as:
#   cmake -DHYBRIDTOR=<path> -DWORK_DIR=<dir> -P cli_e2e.cmake
cmake_minimum_required(VERSION 3.20)

if(NOT DEFINED HYBRIDTOR OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DHYBRIDTOR=<cli> -DWORK_DIR=<dir> -P cli_e2e.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
# Deliberately do NOT create the nested data dir: generate must create it.
set(DATA_DIR "${WORK_DIR}/data/nested")

# -------------------------------------------------------------- 1. generate
execute_process(COMMAND "${HYBRIDTOR}" generate "${DATA_DIR}" 7
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed (rc=${rc}): ${out}${err}")
endif()
foreach(artifact rib.mrt irr.txt truth.csv)
  if(NOT EXISTS "${DATA_DIR}/${artifact}")
    message(FATAL_ERROR "generate did not write ${artifact}")
  endif()
endforeach()

# -------------------------------------------------------------- 2. census
execute_process(COMMAND "${HYBRIDTOR}" census "${DATA_DIR}/rib.mrt" "${DATA_DIR}/irr.txt"
                RESULT_VARIABLE rc OUTPUT_VARIABLE census_j1 ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "census failed (rc=${rc}): ${err}")
endif()
foreach(needle
        "IPv6 AS paths"
        "IPv6 links with relationship"
        "dual-stack links"
        "hybrid links"
        "IPv6 valley paths"
        "dataset entities"
        "most-voted links")
  string(FIND "${census_j1}" "${needle}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "census report is missing line '${needle}':\n${census_j1}")
  endif()
endforeach()

execute_process(COMMAND "${HYBRIDTOR}" inspect "${DATA_DIR}/rib.mrt"
                RESULT_VARIABLE rc OUTPUT_VARIABLE inspect_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "inspect failed (rc=${rc}): ${err}")
endif()
foreach(entity "ASes" "prefixes" "AS links")
  string(REGEX MATCH "distinct ${entity}:? +([0-9]+)" census_match "${census_j1}")
  set(census_count "${CMAKE_MATCH_1}")
  string(REGEX MATCH "distinct ${entity}:? +([0-9]+)" inspect_match "${inspect_out}")
  set(inspect_count "${CMAKE_MATCH_1}")
  if(census_match STREQUAL "" OR inspect_match STREQUAL "")
    message(FATAL_ERROR "missing 'distinct ${entity}' count:\n${census_j1}\n${inspect_out}")
  endif()
  if(NOT census_count EQUAL inspect_count)
    message(FATAL_ERROR "distinct ${entity}: census says ${census_count}, "
                        "inspect says ${inspect_count}")
  endif()
endforeach()

# -------------------------------------------------- 3. --jobs determinism
execute_process(COMMAND "${HYBRIDTOR}" census --jobs 4
                        "${DATA_DIR}/rib.mrt" "${DATA_DIR}/irr.txt"
                RESULT_VARIABLE rc OUTPUT_VARIABLE census_j4 ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "census --jobs 4 failed (rc=${rc}): ${err}")
endif()
if(NOT census_j1 STREQUAL census_j4)
  message(FATAL_ERROR "census --jobs 4 output differs from --jobs 1")
endif()

# ----------------------------------------------------- 4. missing rib.mrt
execute_process(COMMAND "${HYBRIDTOR}" census "${DATA_DIR}/no_such.mrt" "${DATA_DIR}/irr.txt"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "census on a missing rib.mrt must fail")
endif()
string(FIND "${err}" "no_such.mrt" at)
if(at EQUAL -1)
  message(FATAL_ERROR "missing-file diagnostic does not name the file: ${err}")
endif()

# --------------------------------------------------- 5. truncated rib.mrt
# CMake script mode has no binary truncation primitive, so a shell clips the
# file; the check is skipped where /bin/sh does not exist.
find_program(SH_PROGRAM sh)
if(SH_PROGRAM)
  set(TRUNC "${DATA_DIR}/rib_truncated.mrt")
  file(SIZE "${DATA_DIR}/rib.mrt" rib_size)
  math(EXPR cut "${rib_size} - 7")
  execute_process(COMMAND "${SH_PROGRAM}" -c
                          "head -c ${cut} '${DATA_DIR}/rib.mrt' > '${TRUNC}'"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "could not produce truncated rib.mrt")
  endif()
  execute_process(COMMAND "${HYBRIDTOR}" census "${TRUNC}" "${DATA_DIR}/irr.txt"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "census on a truncated rib.mrt must fail")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "census on a truncated rib.mrt printed a partial report:\n${out}")
  endif()
  string(FIND "${err}" "rib_truncated.mrt" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "truncation diagnostic does not name the file: ${err}")
  endif()
else()
  message(STATUS "cli_e2e: no sh found, skipping truncated-file check")
endif()

# ------------------------------------------------------- 6. snapshot store
set(DATA_DIR2 "${WORK_DIR}/data2")
execute_process(COMMAND "${HYBRIDTOR}" generate "${DATA_DIR2}" 8
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate (seed 8) failed (rc=${rc}): ${out}${err}")
endif()

set(SNAP_A "${WORK_DIR}/a.snap")
set(SNAP_A_J4 "${WORK_DIR}/a_j4.snap")
set(SNAP_B "${WORK_DIR}/b.snap")
execute_process(COMMAND "${HYBRIDTOR}" census --snapshot-out "${SNAP_A}"
                        "${DATA_DIR}/rib.mrt" "${DATA_DIR}/irr.txt"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${SNAP_A}")
  message(FATAL_ERROR "census --snapshot-out failed (rc=${rc}): ${err}")
endif()
string(FIND "${out}" "wrote snapshot" at)
if(at EQUAL -1)
  message(FATAL_ERROR "census --snapshot-out did not report the snapshot:\n${out}")
endif()

# Snapshot files are part of the --jobs determinism contract: the bytes on
# disk must be identical at any pool size.
execute_process(COMMAND "${HYBRIDTOR}" census --jobs 4 --snapshot-out "${SNAP_A_J4}"
                        "${DATA_DIR}/rib.mrt" "${DATA_DIR}/irr.txt"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "census --jobs 4 --snapshot-out failed (rc=${rc}): ${err}")
endif()
file(SHA256 "${SNAP_A}" snap_a_hash)
file(SHA256 "${SNAP_A_J4}" snap_a_j4_hash)
if(NOT snap_a_hash STREQUAL snap_a_j4_hash)
  message(FATAL_ERROR "snapshot file differs between --jobs 1 and --jobs 4")
endif()

execute_process(COMMAND "${HYBRIDTOR}" census "--snapshot-out=${SNAP_B}"
                        "${DATA_DIR2}/rib.mrt" "${DATA_DIR2}/irr.txt"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${SNAP_B}")
  message(FATAL_ERROR "census --snapshot-out (seed 8) failed (rc=${rc}): ${err}")
endif()

# Two different seeds must show relationship churn.
execute_process(COMMAND "${HYBRIDTOR}" diff "${SNAP_A}" "${SNAP_B}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE diff_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "diff a.snap b.snap failed (rc=${rc}): ${err}")
endif()
string(REGEX MATCH "total churn: ([0-9]+)" churn_match "${diff_out}")
if(churn_match STREQUAL "")
  message(FATAL_ERROR "diff output missing the total-churn line:\n${diff_out}")
endif()
if(CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "diff of two different seeds reported zero churn:\n${diff_out}")
endif()

# A snapshot against itself must be churn-free.
execute_process(COMMAND "${HYBRIDTOR}" diff "${SNAP_A}" "${SNAP_A}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE diff_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "diff a.snap a.snap failed (rc=${rc}): ${err}")
endif()
string(REGEX MATCH "total churn: ([0-9]+)" churn_match "${diff_out}")
if(churn_match STREQUAL "" OR NOT CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "self-diff must report zero churn:\n${diff_out}")
endif()

# Query a known link: walk the planted ground truth until a link the census
# actually typed resolves (coverage is high but not 100%, so probe a few).
file(STRINGS "${DATA_DIR}/truth.csv" truth_lines)
list(LENGTH truth_lines truth_count)
set(query_as "")
foreach(idx RANGE 1 40)
  if(idx LESS truth_count AND query_as STREQUAL "")
    list(GET truth_lines ${idx} line)
    string(REPLACE "," ";" fields "${line}")
    list(GET fields 0 as_a)
    list(GET fields 1 as_b)
    execute_process(COMMAND "${HYBRIDTOR}" query "${SNAP_A}" "${as_a}" "${as_b}"
                    RESULT_VARIABLE rc OUTPUT_VARIABLE query_out ERROR_VARIABLE err)
    if(rc EQUAL 0)
      string(FIND "${query_out}" "AS${as_a} -> AS${as_b}" at)
      if(at EQUAL -1)
        message(FATAL_ERROR "query output does not name the link:\n${query_out}")
      endif()
      set(query_as "${as_a}")
      set(query_bs "${as_b}")
    endif()
  endif()
endforeach()
if(query_as STREQUAL "")
  message(FATAL_ERROR "no truth.csv link resolved against the snapshot")
endif()

# Neighbor-list mode on the AS that just resolved.
execute_process(COMMAND "${HYBRIDTOR}" query "${SNAP_A}" "${query_as}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE query_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "query neighbor mode failed (rc=${rc}): ${err}")
endif()
string(FIND "${query_out}" "neighbors" at)
if(at EQUAL -1)
  message(FATAL_ERROR "neighbor query output missing the summary line:\n${query_out}")
endif()

# Truncated snapshots must fail cleanly, with no partial diff/query output.
if(SH_PROGRAM)
  set(SNAP_TRUNC "${WORK_DIR}/a_truncated.snap")
  file(SIZE "${SNAP_A}" snap_size)
  math(EXPR snap_cut "${snap_size} - 5")
  execute_process(COMMAND "${SH_PROGRAM}" -c
                          "head -c ${snap_cut} '${SNAP_A}' > '${SNAP_TRUNC}'"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "could not produce truncated snapshot")
  endif()
  foreach(snap_cmd "diff" "query")
    if(snap_cmd STREQUAL "diff")
      execute_process(COMMAND "${HYBRIDTOR}" diff "${SNAP_TRUNC}" "${SNAP_A}"
                      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    else()
      execute_process(COMMAND "${HYBRIDTOR}" query "${SNAP_TRUNC}" "${query_as}"
                      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    endif()
    if(rc EQUAL 0)
      message(FATAL_ERROR "${snap_cmd} on a truncated snapshot must fail")
    endif()
    if(NOT out STREQUAL "")
      message(FATAL_ERROR "${snap_cmd} on a truncated snapshot printed partial output:\n${out}")
    endif()
  endforeach()
else()
  message(STATUS "cli_e2e: no sh found, skipping truncated-snapshot check")
endif()

# A retired v1 snapshot (byte 7, the low byte of the version field, patched
# to 1) is rejected by validate_v2 under both commands: exit 1, nothing on
# stdout, and the command that regenerates it named on stderr.
if(SH_PROGRAM)
  set(SNAP_V1 "${WORK_DIR}/a_v1.snap")
  execute_process(COMMAND "${SH_PROGRAM}" -c
                          "cp '${SNAP_A}' '${SNAP_V1}' && printf '\\001' | dd of='${SNAP_V1}' bs=1 seek=7 conv=notrunc 2>/dev/null"
                  RESULT_VARIABLE rc)
  file(READ "${SNAP_V1}" v1_version OFFSET 4 LIMIT 4 HEX)
  if(NOT rc EQUAL 0 OR NOT v1_version STREQUAL "00000001")
    message(FATAL_ERROR "could not patch a snapshot to v1 (rc=${rc}, version ${v1_version})")
  endif()
  foreach(snap_cmd "diff" "query")
    if(snap_cmd STREQUAL "diff")
      execute_process(COMMAND "${HYBRIDTOR}" diff "${SNAP_A}" "${SNAP_V1}"
                      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    else()
      execute_process(COMMAND "${HYBRIDTOR}" query "${SNAP_V1}" "${query_as}"
                      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    endif()
    if(NOT rc EQUAL 1)
      message(FATAL_ERROR "${snap_cmd} on a v1 snapshot must exit 1 (rc=${rc}): ${err}")
    endif()
    if(NOT out STREQUAL "")
      message(FATAL_ERROR "${snap_cmd} on a v1 snapshot printed output:\n${out}")
    endif()
    string(FIND "${err}" "census --snapshot-out" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${snap_cmd} on a v1 snapshot does not name the regenerate command: ${err}")
    endif()
  endforeach()
else()
  message(STATUS "cli_e2e: no sh found, skipping v1-snapshot check")
endif()

# --------------------------------------- 7. generate argument validation
execute_process(COMMAND "${HYBRIDTOR}" generate "${WORK_DIR}/badseed" 12x
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "generate must reject the garbage seed '12x'")
endif()
string(FIND "${err}" "12x" at)
if(at EQUAL -1)
  message(FATAL_ERROR "garbage-seed diagnostic does not name the value: ${err}")
endif()
execute_process(COMMAND "${HYBRIDTOR}" generate "${WORK_DIR}/extra" 5 surplus
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "generate must reject trailing positional arguments")
endif()

# --------------------------------------------- 8. unknown option rejection
# A typo'd flag must be a reasoned error, not a silent positional that
# later fails as "cannot open '--frobnicate'".
foreach(bad_flag "--frobnicate" "-x" "--no-stream")
  execute_process(COMMAND "${HYBRIDTOR}" census "${bad_flag}"
                          "${DATA_DIR}/rib.mrt" "${DATA_DIR}/irr.txt"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "census must reject the unknown option '${bad_flag}'")
  endif()
  string(FIND "${err}" "unknown option '${bad_flag}'" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "unknown-option diagnostic does not name '${bad_flag}': ${err}")
  endif()
  string(FIND "${err}" "usage:" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "unknown-option error must print usage: ${err}")
  endif()
endforeach()

# The live feed is one loop with no rings to size: --ring-capacity is an
# unknown option to both live modes.
foreach(live_cmd "follow" "serve;--follow")
  execute_process(COMMAND "${HYBRIDTOR}" ${live_cmd} --ring-capacity 4
                          "${DATA_DIR}/rib.mrt" "${DATA_DIR}/irr.txt" "${DATA_DIR}/rib.mrt"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "unknown option '--ring-capacity'" at)
  if(NOT rc EQUAL 2 OR at EQUAL -1 OR NOT out STREQUAL "")
    message(FATAL_ERROR "${live_cmd} --ring-capacity must exit 2 as an unknown option"
                        " (rc=${rc}): ${err}")
  endif()
endforeach()

# The retired snapshot-upgrade verb is no subcommand at all.
execute_process(COMMAND "${HYBRIDTOR}" snapshot-upgrade a b
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "usage:" at)
if(NOT rc EQUAL 2 OR at EQUAL -1)
  message(FATAL_ERROR "snapshot-upgrade must exit 2 with usage (rc=${rc}): ${err}")
endif()

# Value options: the `=` form hands its value to the same parser as the
# separate form, and a missing value is named rather than swallowed.
execute_process(COMMAND "${HYBRIDTOR}" serve --port=70000 "${SNAP_A}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "--port expects an integer in [0, 65535], got '70000'" at)
if(NOT rc EQUAL 2 OR at EQUAL -1 OR NOT out STREQUAL "")
  message(FATAL_ERROR "serve --port=70000 must exit 2 naming the value (rc=${rc}): ${err}")
endif()
execute_process(COMMAND "${HYBRIDTOR}" census "${DATA_DIR}/rib.mrt" "${DATA_DIR}/irr.txt"
                        --snapshot-out
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "--snapshot-out requires a non-empty path" at)
if(NOT rc EQUAL 2 OR at EQUAL -1 OR NOT out STREQUAL "")
  message(FATAL_ERROR "census --snapshot-out without a path must exit 2 (rc=${rc}): ${err}")
endif()

# --------------------------------------------------------- 9. query --json
execute_process(COMMAND "${HYBRIDTOR}" query --json "${SNAP_A}" "${query_as}" "${query_bs}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE json_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "query --json failed (rc=${rc}): ${err}")
endif()
if(NOT json_out MATCHES "^\\{\"a\":${query_as},\"b\":${query_bs},\"rel_v4\":")
  message(FATAL_ERROR "query --json pair output has the wrong shape:\n${json_out}")
endif()
execute_process(COMMAND "${HYBRIDTOR}" query --json "${SNAP_A}" "${query_as}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE json_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT json_out MATCHES "\"neighbor_count\":")
  message(FATAL_ERROR "query --json neighbor output has the wrong shape:\n${json_out}")
endif()
# Not-found still emits the machine-readable error object (on stdout, since
# --json callers parse stdout) and exits nonzero.
execute_process(COMMAND "${HYBRIDTOR}" query --json "${SNAP_A}" 4294967295
                RESULT_VARIABLE rc OUTPUT_VARIABLE json_out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "query --json for an absent AS must exit nonzero")
endif()
if(NOT json_out MATCHES "^\\{\"error\":")
  message(FATAL_ERROR "query --json not-found output must be the error object:\n${json_out}")
endif()
# --json belongs to query alone.
execute_process(COMMAND "${HYBRIDTOR}" diff --json "${SNAP_A}" "${SNAP_A}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "diff --json must be rejected")
endif()
string(FIND "${err}" "--json is only valid with the query subcommand" at)
if(at EQUAL -1)
  message(FATAL_ERROR "diff --json diagnostic is wrong: ${err}")
endif()

# ---------------------------------------------------------------- 10. follow
set(DATA_DIR3 "${WORK_DIR}/data3")
execute_process(COMMAND "${HYBRIDTOR}" generate --update-events 2000 "${DATA_DIR3}" 7
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${DATA_DIR3}/updates.mrt")
  message(FATAL_ERROR "generate --update-events failed (rc=${rc}): ${out}${err}")
endif()
execute_process(COMMAND "${HYBRIDTOR}" follow --epoch-every 500 "${DATA_DIR3}/rib.mrt"
                        "${DATA_DIR3}/irr.txt" "${DATA_DIR3}/updates.mrt"
                RESULT_VARIABLE rc OUTPUT_VARIABLE follow_out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "follow failed (rc=${rc}): ${err}")
endif()
if(NOT follow_out MATCHES "\nepoch 1 @[0-9]+: applied 500," OR
   NOT follow_out MATCHES "\nepoch 4 @[0-9]+: applied 2000,")
  message(FATAL_ERROR "follow is missing its per-epoch lines:\n${follow_out}")
endif()
string(FIND "${follow_out}" "stream done:" at)
if(at EQUAL -1)
  message(FATAL_ERROR "follow is missing the 'stream done:' summary:\n${follow_out}")
endif()
string(FIND "${follow_out}" "valley telemetry" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "follow still prints the removed valley telemetry line:\n${follow_out}")
endif()
if(SH_PROGRAM)
  set(UPDATES_TRUNC "${DATA_DIR3}/updates_truncated.mrt")
  file(SIZE "${DATA_DIR3}/updates.mrt" updates_size)
  math(EXPR cut "${updates_size} - 7")
  execute_process(COMMAND "${SH_PROGRAM}" -c
                          "head -c ${cut} '${DATA_DIR3}/updates.mrt' > '${UPDATES_TRUNC}'"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "could not produce truncated updates.mrt")
  endif()
  execute_process(COMMAND "${HYBRIDTOR}" follow --epoch-every 500 "${DATA_DIR3}/rib.mrt"
                          "${DATA_DIR3}/irr.txt" "${UPDATES_TRUNC}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "follow on a truncated updates file must fail:\n${out}")
  endif()
  string(FIND "${err}" "decode error" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "follow on a truncated updates file gave no decode error: ${err}")
  endif()
else()
  message(STATUS "cli_e2e: no sh found, skipping truncated-updates check")
endif()

# ------------------------------------------------- 11. unreadable IRR path
# A stream opens a directory and reads it as empty; the dictionary loader
# must refuse it rather than mine zero communities.
foreach(irr_cmd "census" "follow")
  if(irr_cmd STREQUAL "census")
    execute_process(COMMAND "${HYBRIDTOR}" census "${DATA_DIR3}/rib.mrt" "${DATA_DIR3}"
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  else()
    execute_process(COMMAND "${HYBRIDTOR}" follow "${DATA_DIR3}/rib.mrt" "${DATA_DIR3}"
                            "${DATA_DIR3}/updates.mrt"
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  endif()
  string(FIND "${err}" "'${DATA_DIR3}'" at)
  if(NOT rc EQUAL 1 OR at EQUAL -1 OR NOT out STREQUAL "")
    message(FATAL_ERROR "${irr_cmd} with a directory as the IRR path must exit 1 naming it"
                        " (rc=${rc}):\n${out}${err}")
  endif()
endforeach()

message(STATUS "cli_e2e: all checks passed")
file(REMOVE_RECURSE "${WORK_DIR}")
