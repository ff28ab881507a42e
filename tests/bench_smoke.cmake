# Bench smoke: both paper-reproduction runs at a tiny scale. Fails when
# either run exits non-zero or its stdout lacks an artefact heading.
#
#   cmake -DDATA_FINDINGS=<bench_data_findings> \
#         -DFULL_REPORT=<bench_full_report> -DOUT=<dir> -P bench_smoke.cmake

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
set(ENV{FAIRMOVE_SCALE} "0.03")
set(ENV{FAIRMOVE_EPISODES} "1")
set(ENV{FAIRMOVE_DAYS} "1")
set(ENV{FAIRMOVE_REPORT_PATH} "${OUT}/fairmove_report.md")

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

run_bench("Table I;Fig 2;Fig 3;Fig 4;Fig 5;Fig 6;Fig 7;Fig 8"
          "${DATA_FINDINGS}")
run_bench("Table II;Table III;Fig 10;Fig 11;Fig 12;Fig 13;Fig 14;Fig 15;Fig 16"
          "${FULL_REPORT}" "--json=${OUT}/report.json")
