# Exact 64-bit seeds through precinct_sim: seeds 2^53 and 2^53 + 1 are
# one apart and collapse into the same double, so they only stay distinct
# if the CLI never rounds a seed through floating point.  Each seed runs
# twice, once from a config file and once from --seed over the same
# scenario; both paths must agree, and the two seeds must differ.
# Replication and worker counts are exact too: a fractional --seeds or
# --world exits 2 with an error naming the flag instead of truncating.
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
foreach(bad "--seeds;2.9" "--world;0.5")
  list(GET bad 0 flag)
  execute_process(COMMAND "${SIM}" --config "${WORK_DIR}/tiny.conf" ${bad}
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  string(FIND "${err}" "${flag}" named)
  if(NOT rc EQUAL 2 OR named EQUAL -1)
    message(FATAL_ERROR "precinct_sim ${bad}: want exit 2 naming ${flag}, "
                        "got ${rc}: ${err}")
  endif()
endforeach()
message(STATUS "exact seeds ok")
