# Pinned outputs: runs every figure/table bench and redspot-sim ensemble
# tables on both volatility windows, and compares each stdout byte-for-byte
# with its golden file under tests/golden/. A mismatch prints
# `diff -u golden actual` and fails the test after every command has run.
#
#   cmake -DBENCH_DIR=<dir of the bench binaries> -DSIM=<redspot-sim>
#         -DGOLDEN_DIR=<tests/golden> -DOUT_DIR=<scratch dir>
#         -P pinned_output.cmake
#
# A golden file changes only together with an explanation of every changed
# line; never regenerate one to make a change pass.

file(MAKE_DIRECTORY "${OUT_DIR}")
set(failed "")

# pin(<golden name> <command> [args...]): runs the command in OUT_DIR (so
# files it writes, like bench_head_to_head's report, land there) and
# compares its stdout with tests/golden/pinned_<golden name>.txt.
function(pin name)
  set(golden "${GOLDEN_DIR}/pinned_${name}.txt")
  set(actual "${OUT_DIR}/pinned_${name}.txt")
  execute_process(COMMAND ${ARGN}
                  WORKING_DIRECTORY "${OUT_DIR}"
                  OUTPUT_FILE "${actual}"
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message("${name}: exited with ${rc}\n${err}")
    set(failed ${failed} ${name} PARENT_SCOPE)
    return()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${golden}" "${actual}"
                  RESULT_VARIABLE differs)
  if(differs)
    message("${name}: stdout differs from ${golden}")
    execute_process(COMMAND diff -u "${golden}" "${actual}")
    set(failed ${failed} ${name} PARENT_SCOPE)
  endif()
endfunction()

pin(fig4_policies_6 "${BENCH_DIR}/bench_fig4_policies" 6)
pin(table2_table3_8 "${BENCH_DIR}/bench_table2_table3" 8)
pin(fig5_adaptive_6 "${BENCH_DIR}/bench_fig5_adaptive" 6)
pin(fig6_largebid_6 "${BENCH_DIR}/bench_fig6_largebid" 6)
pin(ablation_notice_6 "${BENCH_DIR}/bench_ablation_notice" 6)
pin(fault_sensitivity_10 "${BENCH_DIR}/bench_fault_sensitivity" 10)
pin(head_to_head_8_300 "${BENCH_DIR}/bench_head_to_head" 8 300)
# The same ensemble table at two shard counts: its quantiles depend on
# the partition today (ROADMAP item 9), so the two goldens differ.
foreach(shards 4 8)
  pin(ensemble_markov_daly_shards${shards} "${SIM}" ensemble
      --policy markov-daly --zones 0,1,2 --bid 0.81
      --replications 40 --shards ${shards} --threads 2)
endforeach()
# The low-volatility window (March): Large-bid across the forced $20.02
# spike of Mar 13, Rising-edge at the $0.27 floor, and Adaptive, which
# reads its price history right from the start of a replication's span.
pin(ensemble_low_large_bid "${SIM}" ensemble --window low
    --policy large-bid --zones 0 --threshold 2.40
    --replications 40 --shards 4 --threads 2)
pin(ensemble_low_rising_edge "${SIM}" ensemble --window low
    --policy rising-edge --zones 0,1,2 --bid 0.27 --slack 0.5
    --replications 40 --shards 4 --threads 2)
pin(ensemble_low_adaptive "${SIM}" ensemble --window low
    --policy adaptive --slack 0.5 --tc 900
    --replications 24 --shards 3 --threads 2)

if(failed)
  message(FATAL_ERROR "pinned outputs changed: ${failed}")
endif()
message("every pinned output matches")
