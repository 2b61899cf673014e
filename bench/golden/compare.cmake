# Runs `${BIN} ${ARGS}` and fails unless its stdout equals the file
# ${GOLDEN} byte for byte. The stdout is kept in ${OUT} for diffing.
# ARGS is one space-separated string.
#
#   cmake -DBIN=<binary> "-DARGS=<arguments>" -DGOLDEN=<golden file> \
#         -DOUT=<file> -P compare.cmake

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${BIN} ${args}
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR
        "${OUT} differs from ${GOLDEN}; see: diff ${GOLDEN} ${OUT}")
endif()
