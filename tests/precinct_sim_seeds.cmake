# Exact 64-bit seeds through precinct_sim: seeds 2^53 and 2^53 + 1 are
# one apart and collapse into the same double, so they only stay distinct
# if the CLI never rounds a seed through floating point.  Each seed runs
# twice, once from a config file and once from --seed over the same
# scenario; both paths must agree, and the two seeds must differ.
#
#   cmake -DSIM=<precinct_sim> -DWORK_DIR=<scratch dir> -P precinct_sim_seeds.cmake
if(NOT SIM OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DSIM=... -DWORK_DIR=... -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(MAKE_DIRECTORY "${WORK_DIR}")
set(scenario "nodes = 12\narea = 600\nregions = 2\nitems = 50\nwarmup = 5\nmeasure = 20\n")
file(WRITE "${WORK_DIR}/tiny.conf" "${scenario}")

function(fingerprint out)
  execute_process(COMMAND "${SIM}" ${ARGN} --fingerprint
                  OUTPUT_VARIABLE fp ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "precinct_sim ${ARGN} failed (${rc}): ${err}")
  endif()
  set(${out} "${fp}" PARENT_SCOPE)
endfunction()

foreach(seed 9007199254740992 9007199254740993)
  file(WRITE "${WORK_DIR}/seed-${seed}.conf" "${scenario}seed = ${seed}\n")
  fingerprint(via_config --config "${WORK_DIR}/seed-${seed}.conf")
  fingerprint(via_flag --config "${WORK_DIR}/tiny.conf" --seed ${seed})
  if(NOT via_config STREQUAL via_flag)
    message(FATAL_ERROR "seed ${seed}: --config and --seed runs differ")
  endif()
  set(fp_${seed} "${via_config}")
endforeach()
if(fp_9007199254740992 STREQUAL fp_9007199254740993)
  message(FATAL_ERROR "seeds 2^53 and 2^53+1 ran the same scenario")
endif()
message(STATUS "exact seeds ok")
