# Run a program and check how it ends, for CLI smoke tests:
#
#   cmake -DEXE=<program> -DARGS="<args>" -DEXPECT_CODE=<n>
#         -DEXPECT_OUTPUT="<words>" -P expect_run.cmake
#
# ARGS and EXPECT_OUTPUT are space-separated. The run passes when the exit
# code is EXPECT_CODE and every word of EXPECT_OUTPUT appears in its
# combined stdout and stderr.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(output "${out}${err}")
if(NOT code STREQUAL EXPECT_CODE)
  message(FATAL_ERROR
    "exit code ${code}, expected ${EXPECT_CODE}; output:\n${output}")
endif()
separate_arguments(words UNIX_COMMAND "${EXPECT_OUTPUT}")
foreach(word IN LISTS words)
  string(FIND "${output}" "${word}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${word}' missing from output:\n${output}")
  endif()
endforeach()
