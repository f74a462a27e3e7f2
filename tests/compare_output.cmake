# Runs EXAMPLE and compares its stdout with GOLDEN byte for byte. The
# run's stdout is kept in ACTUAL, so a failure can be inspected with
# `diff GOLDEN ACTUAL`. MASK, when set, is a regex for text that
# depends on the host, not on the simulation; its matches are replaced
# on both sides before the comparison.
#
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<file> -DACTUAL=<file> \
#         [-DMASK=<regex>] -P compare_output.cmake
execute_process(COMMAND "${EXAMPLE}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
file(WRITE "${ACTUAL}" "${actual}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with status ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(MASK)
  string(REGEX REPLACE "${MASK}" "<host>" actual "${actual}")
  string(REGEX REPLACE "${MASK}" "<host>" expected "${expected}")
endif()
if(NOT "${actual}" STREQUAL "${expected}")
  message(FATAL_ERROR "${EXAMPLE}: stdout differs from ${GOLDEN}; "
                      "see diff ${GOLDEN} ${ACTUAL}")
endif()
