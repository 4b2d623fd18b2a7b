# Runs a CLI invocation that must be rejected up front: exit status 2
# and a stderr diagnostic matching EXPECT (a regex naming the field).
#   cmake -DCMD=<binary> "-DARGS=<args>" -DEXPECT=<regex> -P expect_reject.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "exit status ${status}, want 2; stderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "stderr lacks '${EXPECT}': ${err}")
endif()
