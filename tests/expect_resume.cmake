# Resume a committed checkpoint journal and fail unless every spec is
# taken from the journal (nothing re-runs) and stdout equals the output
# of the run that wrote the journal. Journals are keyed by each spec's
# canonical key, so this fails if the key bytes change.
#
#   cmake -DCOMMAND=<nanobench> -DARGS=<args> -DEXPECTED=<stdout file>
#         -DRESUMED=<spec count> -P expect_resume.cmake
execute_process(COMMAND ${COMMAND} ${ARGS} -report -
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${COMMAND} ${ARGS}: exit '${rc}'\n${err}")
endif()
file(READ ${EXPECTED} expected)
if(NOT out STREQUAL expected)
  message(FATAL_ERROR "stdout differs from ${EXPECTED}:\n${out}")
endif()
if(NOT err MATCHES "\"resumed_specs\": ${RESUMED},")
  message(FATAL_ERROR "not all ${RESUMED} specs resumed:\n${err}")
endif()
if(NOT err MATCHES "\"per_worker_specs\": \\[0\\]")
  message(FATAL_ERROR "a resumed spec ran again:\n${err}")
endif()
