# Bench smoke: both paper-reproduction runs, the repeated comparison in both
# modes and the Table IV sweep, all at a tiny scale. Fails when a run exits
# non-zero, its stdout lacks an artefact heading, or its --json document
# lacks the fairmove.racing.v1 schema; also fails when bench_full_report
# with an empty --json path does not stop before writing its report.
#
#   cmake -DDATA_FINDINGS=<bench_data_findings> \
#         -DFULL_REPORT=<bench_full_report> \
#         -DREPEATED=<bench_repeated_comparison> \
#         -DALPHA_SWEEP=<bench_table4_alpha_sweep> -DOUT=<dir> \
#         -P bench_smoke.cmake

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(ENV{FAIRMOVE_SCALE} "0.03")
set(ENV{FAIRMOVE_EPISODES} "1")
set(ENV{FAIRMOVE_DAYS} "1")
set(ENV{FAIRMOVE_REPEATS} "2")
set(ENV{FAIRMOVE_REPORT_PATH} "${OUT}/fairmove_report.md")

# A bad flag must fail before any training: non-zero exit and no report.
execute_process(COMMAND "${FULL_REPORT}" "--json=" RESULT_VARIABLE rc
                OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: '${FULL_REPORT} --json=' exited 0")
endif()
if(EXISTS "$ENV{FAIRMOVE_REPORT_PATH}")
  message(FATAL_ERROR "bench_smoke: '${FULL_REPORT} --json=' wrote a report")
endif()

# Runs the command in ARGN; every entry of `artefacts` must head a section
# of its stdout as "<artefact> — ".
function(run_bench artefacts)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: '${ARGN}' exited ${rc}")
  endif()
  foreach(artefact IN LISTS artefacts)
    string(FIND "${out}" "${artefact} — " pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "bench_smoke: '${ARGN}' printed no '${artefact}'")
    endif()
  endforeach()
endfunction()

# Runs the command in ARGN with --json=<json>; the document it writes must
# carry the racing schema.
function(run_racing_json json)
  execute_process(COMMAND ${ARGN} "--json=${json}" RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_smoke: '${ARGN} --json=${json}' exited ${rc}")
  endif()
  if(NOT EXISTS "${json}")
    message(FATAL_ERROR "bench_smoke: '${ARGN}' wrote no ${json}")
  endif()
  file(READ "${json}" doc)
  string(FIND "${doc}" "\"schema\":\"fairmove.racing.v1\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "bench_smoke: ${json} is not fairmove.racing.v1")
  endif()
endfunction()

run_bench("Table I;Fig 2;Fig 3;Fig 4;Fig 5;Fig 6;Fig 7;Fig 8"
          "${DATA_FINDINGS}")
run_bench("Table II;Table III;Fig 10;Fig 11;Fig 12;Fig 13;Fig 14;Fig 15;Fig 16"
          "${FULL_REPORT}" "--json=${OUT}/report.json")
run_racing_json("${OUT}/fixed.json" "${REPEATED}")
run_racing_json("${OUT}/race.json" "${REPEATED}" "--racing"
                "--max-replicas=2")
run_racing_json("${OUT}/alpha.json" "${ALPHA_SWEEP}")
