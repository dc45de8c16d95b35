# Writes OUT: the module sva-cc compiles from IN, as `--emit-text` prints
# it, with every call of the check intrinsic CHECK deleted — a compiler that
# "forgot" a check. Fails if there was no such call to delete.
#
#   cmake -DSVA_CC=<sva-cc> -DIN=<.sva> -DCHECK=<intrinsic> -DOUT=<.sva>
#         -P drop_check.cmake
execute_process(COMMAND ${SVA_CC} ${IN} --emit-text
  RESULT_VARIABLE code OUTPUT_VARIABLE text ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "sva-cc failed: ${err}")
endif()
string(REPLACE "." "\\." pattern "${CHECK}")
string(REGEX REPLACE "[^\n]*call void @${pattern}\\([^\n]*\n" "" dropped
  "${text}")
if("${dropped}" STREQUAL "${text}")
  message(FATAL_ERROR "no call of ${CHECK} in the compiled ${IN}")
endif()
file(WRITE ${OUT} "${dropped}")
