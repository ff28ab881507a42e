# Observability smoke: one small bench run with telemetry, profiling and the
# live metrics exporter on, then obs_check over both artefact directories.
# Any non-zero exit (a crashed bench or a malformed artefact) fails the test.
#
#   cmake -DBENCH=<bench binary> -DOBS_CHECK=<obs_check> -DOUT=<dir> \
#         -P obs_smoke.cmake

file(REMOVE_RECURSE "${OUT}")
set(ENV{FAIRMOVE_TELEMETRY} "${OUT}/telemetry")
set(ENV{FAIRMOVE_PROFILE} "1")
set(ENV{FAIRMOVE_METRICS_EXPORT} "${OUT}/export:100")
set(ENV{FAIRMOVE_SCALE} "0.04")
set(ENV{FAIRMOVE_DAYS} "1")

function(run_step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "obs_smoke: '${ARGN}' exited ${rc}")
  endif()
endfunction()

run_step("${BENCH}")
run_step("${OBS_CHECK}" "${OUT}/telemetry")
run_step("${OBS_CHECK}" --export "${OUT}/export")
