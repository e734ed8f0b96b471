# Runs a driver (a fault matrix or imcasim) and requires its stdout to match
# a committed golden transcript byte for byte. This is the determinism pin
# at system scale (DESIGN.md §5h): the simulation is deterministic, so any
# change to the schedule, a fault draw or an oracle shows up as a byte
# difference. The goldens change only with a deliberate change to
# simulated behaviour, regenerated with `<matrix> --seed=N > golden`.
#
# Usage: cmake -D MATRIX=<driver> -D "ARGS=<space-separated flags>"
#              -D GOLDEN=<file> -P compare_golden.cmake
foreach(var MATRIX ARGS GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_golden.cmake: -D ${var}=... required")
  endif()
endforeach()

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${MATRIX}" ${args}
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${MATRIX} ${ARGS} failed rc=${rc}\n${out}${err}")
endif()

file(READ "${GOLDEN}" golden)
if(NOT out STREQUAL golden)
  message(FATAL_ERROR
          "${MATRIX} ${ARGS} differs from ${GOLDEN}\n"
          "--- golden ---\n${golden}\n"
          "--- actual ---\n${out}")
endif()

message(STATUS "${MATRIX} ${ARGS} byte-identical to ${GOLDEN}")
