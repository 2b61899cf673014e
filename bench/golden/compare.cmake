# Runs `${PAPER} --seed 1` and fails unless its stdout equals the file
# ${GOLDEN} byte for byte. The stdout is kept in ${OUT} for diffing.
#
#   cmake -DPAPER=<paper binary> -DGOLDEN=<golden file> -DOUT=<file> \
#         -P compare.cmake

execute_process(
    COMMAND ${PAPER} --seed 1
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${PAPER} --seed 1 exited with ${status}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR
        "${OUT} differs from ${GOLDEN}; see: diff ${GOLDEN} ${OUT}")
endif()
