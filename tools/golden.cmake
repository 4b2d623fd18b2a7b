# Runs one golden invocation and diffs its stdout, and its
# --metrics-out file when ARGS holds @METRICS@, against the committed
# files GOLDEN.txt and GOLDEN.metrics.json. With
# CHAMELEON_UPDATE_GOLDENS=1 in the environment it rewrites them
# instead (tools/update_goldens.sh). The goldens hold the default
# (incremental) solver's counters.
#   cmake -DCMD=<binary> "-DARGS=<args>" -DGOLDEN=<path prefix>
#         -DOUTDIR=<dir> -P golden.cmake
file(MAKE_DIRECTORY ${OUTDIR})
string(REPLACE "@METRICS@" "${OUTDIR}/metrics.json" args "${ARGS}")
separate_arguments(args UNIX_COMMAND "${args}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE status
                OUTPUT_FILE ${OUTDIR}/stdout.txt)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${CMD} ${ARGS}: exit status ${status}")
endif()

set(outputs "${OUTDIR}/stdout.txt=${GOLDEN}.txt")
if(ARGS MATCHES "@METRICS@")
    list(APPEND outputs "${OUTDIR}/metrics.json=${GOLDEN}.metrics.json")
endif()
foreach(pair ${outputs})
    string(REPLACE "=" ";" pair "${pair}")
    list(GET pair 0 actual)
    list(GET pair 1 golden)
    if("$ENV{CHAMELEON_UPDATE_GOLDENS}" STREQUAL "1")
        configure_file(${actual} ${golden} COPYONLY)
        continue()
    endif()
    # The reference solver re-solves the whole network on every
    # event, so its two dirty-set work counters differ by design;
    # every other value must match in both solver modes.
    if(NOT "$ENV{CHAMELEON_SIM_REFERENCE_SOLVER}" MATCHES "^(0.*)?$")
        foreach(side golden actual)
            file(READ ${${side}} text)
            string(REGEX REPLACE
                   "[^\n]*\"sim\\.(rate_recompute_flow_visits|solver\\.dirty_resource_visits)\"[^\n]*\n"
                   "" text "${text}")
            file(WRITE ${OUTDIR}/${side}.reference "${text}")
            set(${side} ${OUTDIR}/${side}.reference)
        endforeach()
    endif()
    execute_process(COMMAND diff -u ${golden} ${actual}
                    RESULT_VARIABLE differs
                    OUTPUT_VARIABLE delta)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR "${golden} no longer matches `${CMD} "
                "${ARGS}`; list each changed cell, with the reason, in "
                "CHANGES.md and regenerate with tools/update_goldens.sh"
                "\n${delta}")
    endif()
endforeach()
