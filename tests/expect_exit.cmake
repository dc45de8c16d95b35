# Runs one command and passes only if it exits with EXIT and its combined
# stdout and stderr match the regex MATCH, so a test can pin both the exit
# code and the message that explains it (WILL_FAIL accepts any failure).
#
#   cmake -DCMD=<program;arg;...> -DEXIT=<code> -DMATCH=<regex>
#         -P expect_exit.cmake
execute_process(COMMAND ${CMD}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT "${code}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "exited ${code}, expected ${EXIT}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match: ${MATCH}")
endif()
