# Byte-identity checks through the real `greenhetero` binary.
#
#   cmake -DCLI=<greenhetero> -DCASE=simulate|fleet -DWORK_DIR=<dir>
#         [-DGOLDEN=<trace_cli_sim.jsonl>] -P cli_byte_identity.cmake
#
# simulate: `simulate --days 1 --seed 42 --trace-out` must reproduce the
#           committed golden byte for byte (the analyze gate only catches
#           drift beyond 1%).
# fleet:    a 6-rack, 24 h fleet's streamed trace (--stream on) must equal
#           its buffered trace byte for byte.

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "greenhetero ${ARGN} exited ${code}: ${err}")
  endif()
endfunction()

function(expect_same_bytes want got)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${want} ${got}
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "${got} differs from ${want}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
if(CASE STREQUAL "simulate")
  run_cli(simulate --days 1 --seed 42 --trace-out ${WORK_DIR}/sim.jsonl)
  expect_same_bytes(${GOLDEN} ${WORK_DIR}/sim.jsonl)
elseif(CASE STREQUAL "fleet")
  run_cli(fleet --racks 6 --hours 24 --stream on
          --trace-out ${WORK_DIR}/streamed.jsonl)
  run_cli(fleet --racks 6 --hours 24 --trace-out ${WORK_DIR}/buffered.jsonl)
  expect_same_bytes(${WORK_DIR}/buffered.jsonl ${WORK_DIR}/streamed.jsonl)
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
