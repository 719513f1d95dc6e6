# ctest script: bench_chaos_sweep must reject every --plans= value that is
# not a positive integer with its usage message and exit status 2, instead
# of running zero plans and reporting a pass.
#
#   cmake -DSWEEP=<path to bench_chaos_sweep> -P check_chaos_sweep_plans.cmake
foreach(bad "0" "-1" "abc" "3x" "")
  execute_process(COMMAND ${SWEEP} --plans=${bad}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--plans=${bad}: exit status ${rc}, want 2\n${out}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "--plans=${bad}: no usage message on stderr\n${err}")
  endif()
  if(out MATCHES "passed")
    message(FATAL_ERROR "--plans=${bad}: reported a pass\n${out}")
  endif()
endforeach()
