# Run COMMAND with the ;-separated ARGS and fail unless it exits with
# code EXPECT and prints a "fatal: " line on stderr.
#
#   cmake -DCOMMAND=<exe> -DARGS=<args> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND ${COMMAND} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
  message(FATAL_ERROR "${COMMAND} ${ARGS}: exit '${rc}', expected "
    "${EXPECT}\n${err}")
endif()
if(NOT err MATCHES "fatal: ")
  message(FATAL_ERROR "${COMMAND} ${ARGS}: no 'fatal: ' line on stderr")
endif()
