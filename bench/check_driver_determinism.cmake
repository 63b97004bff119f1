# Parallel-determinism check for the coopfs_bench driver (run via `cmake -P`).
#
# Replay depends only on (config, policy), never on scheduling, so the driver
# must produce byte-identical stdout whether experiments and sweeps run
# serially or fanned out. Runs the same selection at --threads 1 and
# --threads THREADS and fails on any stdout difference. Also asserts that
# both runs wrote one coopfs.run/v1 manifest per selected experiment.
#
# Expected -D variables:
#   DRIVER   path to the coopfs_bench binary
#   FILTER   the --filter glob for the selection
#   NAMES    ;-list of the experiment names FILTER selects
#   EVENTS   --events value (kept small for test time)
#   THREADS  parallel width to compare against serial
#   OUT_DIR  scratch --out-dir for manifests
foreach(var DRIVER FILTER NAMES EVENTS THREADS OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_driver_determinism.cmake: missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
execute_process(COMMAND "${DRIVER}" --filter "${FILTER}" --events "${EVENTS}"
    --threads 1 --out-dir "${OUT_DIR}/serial"
  OUTPUT_VARIABLE serial_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "serial driver run failed with exit code ${rc}")
endif()

execute_process(COMMAND "${DRIVER}" --filter "${FILTER}" --events "${EVENTS}"
    --threads "${THREADS}" --out-dir "${OUT_DIR}/parallel"
  OUTPUT_VARIABLE parallel_out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "parallel driver run failed with exit code ${rc}")
endif()

if(NOT serial_out STREQUAL parallel_out)
  file(WRITE "${OUT_DIR}/serial.stdout" "${serial_out}")
  file(WRITE "${OUT_DIR}/parallel.stdout" "${parallel_out}")
  message(FATAL_ERROR "--threads ${THREADS} changed the driver's stdout; see "
    "${OUT_DIR}/serial.stdout vs ${OUT_DIR}/parallel.stdout")
endif()
foreach(run serial parallel)
  foreach(name IN LISTS NAMES)
    if(NOT EXISTS "${OUT_DIR}/${run}/${name}.run.json")
      message(FATAL_ERROR "${run} driver run did not write ${OUT_DIR}/${run}/${name}.run.json")
    endif()
  endforeach()
endforeach()
message(STATUS "--threads ${THREADS} byte-identical to serial for '${FILTER}', "
  "and all manifests written")
