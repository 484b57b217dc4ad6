# check_golden.cmake — run one bench binary and compare its stdout with its
# committed golden file, byte for byte.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DWORK_DIR=<dir> -P check_golden.cmake
#
# The bench runs in WORK_DIR, so the BENCH_*.json files some benches write
# stay out of the source tree. Environment switches that change bench
# stdout are cleared first.
foreach(var BENCH GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden: ${var} is not set")
  endif()
endforeach()

unset(ENV{FLUXPOWER_BENCH_XL})
unset(ENV{FLUXPOWER_HOST_TIMING})

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(actual "${WORK_DIR}/stdout.txt")
execute_process(COMMAND "${BENCH}"
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${actual}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}" "${GOLDEN}"
  RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${actual}")
  endif()
  message(FATAL_ERROR "stdout differs from ${GOLDEN}. If the change is "
    "intended, regenerate with tools/update_goldens and give the reason in "
    "CHANGES.md.")
endif()
