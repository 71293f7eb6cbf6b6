# Byte-identity and argument checks through the real `greenhetero` binary.
#
#   cmake -DCLI=<greenhetero> -DCASE=simulate|fleet|reject|accept|crash_clean
#         -DWORK_DIR=<dir> [-DGOLDEN=<trace_cli_sim.jsonl>]
#         -P cli_byte_identity.cmake
#
# simulate: `simulate --days 1 --seed 42 --trace-out` must reproduce the
#           committed golden byte for byte (the analyze gate only catches
#           drift beyond 1%).
# fleet:    a 6-rack, 24 h fleet with the ledger and hourly rollups writes
#           the same trace and rollup series byte for byte on one thread and
#           one shard as on four threads and three shards.
# reject:   every bad command line of a fixed list exits 2, names the flag
#           on stderr and writes no file; a --resume whose snapshots all
#           fail to load exits 2 and leaves --trace-out as it was.
# accept:   explicit defaults and bare switches keep the golden bytes, the
#           fuzzer's repro line runs, --resume accepts exactly the
#           command lines that describe the same scenario, and an empty
#           --resume directory starts fresh.
# bench_reject: with CLI=bench_datacenter_study, a negative thread count,
#           zero racks and an unknown flag each exit 2 naming the flag.
# crash_clean: a clean one-run `fuzz --crash` leaves its working directory
#           empty (no crash-fuzz/ work directory behind).

function(run_cli)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "greenhetero ${ARGN} exited ${code}: ${err}")
  endif()
endfunction()

# Runs `greenhetero ARGN` in an empty directory of its own; it must exit 2
# with `want` in the first stderr line (the usage text that follows lists
# every flag) and leave the directory empty.
function(expect_rejected want)
  string(MD5 tag "${ARGN}")
  set(dir ${WORK_DIR}/${tag})
  file(MAKE_DIRECTORY ${dir})
  execute_process(COMMAND ${CLI} ${ARGN} WORKING_DIRECTORY ${dir}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "greenhetero ${ARGN} exited ${code}, want 2: ${err}")
  endif()
  string(REGEX MATCH "^[^\n]*" message "${err}")
  string(FIND "${message}" "${want}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "greenhetero ${ARGN}: stderr lacks '${want}': ${err}")
  endif()
  file(GLOB_RECURSE left LIST_DIRECTORIES true ${dir}/*)
  if(left)
    message(FATAL_ERROR "greenhetero ${ARGN} wrote ${left}")
  endif()
endfunction()

# `greenhetero ARGN` must exit non-zero with `want` on stderr.
function(expect_failure want)
  execute_process(COMMAND ${CLI} ${ARGN} RESULT_VARIABLE code
                  OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${want}" at)
  if(code EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR
            "greenhetero ${ARGN} exited ${code}, want failure with '${want}': "
            "${err}")
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
  foreach(topology "1;1" "4;3")
    list(GET topology 0 threads)
    list(GET topology 1 shards)
    run_cli(fleet --racks 6 --hours 24 --threads ${threads} --shards ${shards}
            --ledger on --rollup-window 60
            --trace-out ${WORK_DIR}/trace-${threads}x${shards}.jsonl
            --rollup-out ${WORK_DIR}/rollup-${threads}x${shards}.jsonl)
  endforeach()
  expect_same_bytes(${WORK_DIR}/trace-1x1.jsonl ${WORK_DIR}/trace-4x3.jsonl)
  expect_same_bytes(${WORK_DIR}/rollup-1x1.jsonl ${WORK_DIR}/rollup-4x3.jsonl)
elseif(CASE STREQUAL "reject")
  # Unknown flags, --help included.
  expect_rejected(--bogus fleet --bogus 1)
  expect_rejected("did you mean --checkpoint-dir?" fleet --chekpoint-dir d)
  expect_rejected(--help fleet --help)
  expect_rejected(--solver simulate --solver grid)
  expect_rejected(--telemetry simulate --telemetry off)
  expect_rejected(--hours simulate --hours 6)
  # Numbers of the wrong type or out of range.
  expect_rejected(--racks fleet --racks -5)
  expect_rejected(--racks fleet --racks 2.5)
  expect_rejected(--days simulate --days 0)
  expect_rejected(--seed simulate --seed -1)
  expect_rejected(--seed simulate --seed 1.5)
  # Values outside the choices.
  expect_rejected(--chemistry simulate --chemistry nimh)
  expect_rejected(--mode fleet --mode statc)
  expect_rejected(--trace simulate --trace hgh)
  expect_rejected(--workload simulate --workload Foo)
  expect_rejected(--comb simulate --comb Foo)
  # A switch takes a bare flag, on or off.
  expect_rejected(--check simulate --check maybe)
  # Rejected while parsing, before any worker pool exists.
  expect_rejected(--threads fleet --threads 99999999999)
  # Removed flags: --trace-out always streams.
  expect_rejected(--stream fleet --stream on)
  # --resume over snapshots that all fail to load (here: stamped one
  # version older) refuses to start fresh: exit 2 naming the directory and
  # the snapshot count, and the interrupted run's trace keeps its bytes.
  set(stale ${WORK_DIR}/stale-ckpt)
  set(trace ${WORK_DIR}/stale.jsonl)
  run_cli(simulate --days 1 --checkpoint-dir ${stale} --checkpoint-every 48
          --checkpoint-keep 1 --trace-out ${trace})
  file(COPY_FILE ${trace} ${WORK_DIR}/stale-ref.jsonl)
  file(GLOB snapshot ${stale}/ckpt-*.bin)
  file(READ ${snapshot} version OFFSET 8 LIMIT 1 HEX)
  math(EXPR older "0x${version} - 1" OUTPUT_FORMAT HEXADECIMAL)
  string(REPLACE "0x" "\\x" older "${older}")
  execute_process(COMMAND printf "${older}"
                  COMMAND dd of=${snapshot} bs=1 seek=8 conv=notrunc
                          status=none
                  RESULT_VARIABLE patched)
  if(NOT patched EQUAL 0)
    message(FATAL_ERROR "could not restamp ${snapshot}")
  endif()
  execute_process(COMMAND ${CLI} simulate --days 1 --resume ${stale}
                          --trace-out ${trace}
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "none of the 1 snapshot(s) in ${stale} loads" at)
  if(NOT code EQUAL 2 OR at EQUAL -1)
    message(FATAL_ERROR "--resume over an unloadable snapshot exited ${code}, "
                        "want 2 naming ${stale}: ${err}")
  endif()
  expect_same_bytes(${WORK_DIR}/stale-ref.jsonl ${trace})
elseif(CASE STREQUAL "bench_reject")
  expect_rejected(--threads --threads -1)
  expect_rejected(--racks --racks 0)
  expect_rejected(--bogus --bogus 1)
elseif(CASE STREQUAL "accept")
  # Explicit defaults and explicit "off" switches keep the golden bytes.
  run_cli(simulate --days 1 --seed 42 --ledger off --check off
          --trace-out ${WORK_DIR}/sim.jsonl)
  expect_same_bytes(${GOLDEN} ${WORK_DIR}/sim.jsonl)
  # A bare --check is --check on: the checker reports its counts.
  execute_process(COMMAND ${CLI} simulate --days 1 --check
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${out}" "invariants:" at)
  if(NOT code EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "simulate --check exited ${code}: ${out}${err}")
  endif()
  # The fuzzer's shrunk repro line is a valid command line.
  run_cli(fuzz --seed 9 --runs 1 --run 3 --racks 2 --epochs 5 --shards 2
          --max-faults 1 --solver on)
  # --resume accepts what describes the same scenario and refuses the rest.
  set(ckpt ${WORK_DIR}/sim-ckpt)
  run_cli(simulate --days 2 --checkpoint-dir ${ckpt} --checkpoint-every 48)
  run_cli(simulate --days 2 --seed 42 --resume ${ckpt})
  expect_failure(fingerprint simulate --days 2 --seed 43 --resume ${ckpt})
  expect_failure(fingerprint simulate --days 2 --resume ${ckpt}
                 --rollup-out ${WORK_DIR}/rollup.jsonl)
  # --threads is execution topology (fleet is the subcommand that has it).
  set(fleet_ckpt ${WORK_DIR}/fleet-ckpt)
  run_cli(fleet --racks 2 --hours 12 --threads 1
          --checkpoint-dir ${fleet_ckpt} --checkpoint-every 16)
  run_cli(fleet --racks 2 --hours 12 --threads 2 --resume ${fleet_ckpt})
  expect_failure(fingerprint fleet --racks 2 --hours 12 --mode static
                 --resume ${fleet_ckpt})
  # An empty --resume directory starts fresh: a crash can land before the
  # first checkpoint.
  file(MAKE_DIRECTORY ${WORK_DIR}/empty-ckpt)
  run_cli(simulate --days 1 --resume ${WORK_DIR}/empty-ckpt)
elseif(CASE STREQUAL "crash_clean")
  file(REMOVE_RECURSE ${WORK_DIR})
  file(MAKE_DIRECTORY ${WORK_DIR})
  execute_process(COMMAND ${CLI} fuzz --crash --seed 1 --runs 1
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "fuzz --crash exited ${code}: ${out}${err}")
  endif()
  file(GLOB left LIST_DIRECTORIES true ${WORK_DIR}/*)
  if(left)
    message(FATAL_ERROR "fuzz --crash left ${left}")
  endif()
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
file(REMOVE_RECURSE ${WORK_DIR})
