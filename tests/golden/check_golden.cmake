# check_golden.cmake — run one bench binary and compare its stdout with its
# committed golden file, byte for byte.
#
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DWORK_DIR=<dir>
#         [-DARGS="<arguments>"] [-DOUTPUT=<file name>] -P check_golden.cmake
#
# The bench runs in WORK_DIR, so the BENCH_*.json files some benches write
# stay out of the source tree. Environment switches that change bench
# stdout are cleared first. ARGS is split like a shell command line. With
# OUTPUT set, the file of that name the binary wrote into WORK_DIR is
# compared instead of stdout.
foreach(var BENCH GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden: ${var} is not set")
  endif()
endforeach()

unset(ENV{FLUXPOWER_BENCH_XL})
unset(ENV{FLUXPOWER_HOST_TIMING})

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
  WORKING_DIRECTORY "${WORK_DIR}"
  OUTPUT_FILE "${WORK_DIR}/stdout.txt"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
if(DEFINED OUTPUT)
  set(actual "${WORK_DIR}/${OUTPUT}")
else()
  set(actual "${WORK_DIR}/stdout.txt")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}" "${GOLDEN}"
  RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${actual}")
  endif()
  message(FATAL_ERROR "${actual} differs from ${GOLDEN}. If the change is "
    "intended, regenerate with tools/update_goldens and give the reason in "
    "CHANGES.md.")
endif()
