# Golden-fixture identity for the sharer storage: run the scaling
# suite on both sides of the word-mode boundary and at the N=1024
# hybrid/spill point, then require `dirsim_report --diff` against the
# committed fixtures (tests/golden/scale<N>.jsonl) to exit 0 for every
# cache count. The diff compares every deterministic per-cell metric
# (events, ops, the Figure 1 histogram, derived costs) and ignores
# wall-clock fields.
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

set(dir "${WORKDIR}/sharer_identity")
file(REMOVE_RECURSE ${dir})
run(${CMAKE_COMMAND} -E env DIRSIM_SCALING_NS=4,6,13,1024
    DIRSIM_SCALING_REFS=30000
    ${SCALING} run ${dir})
foreach(n 4 6 13 1024)
    execute_process(
        COMMAND ${REPORT} --diff
            ${GOLDEN}/scale${n}.jsonl ${dir}/scale${n}.jsonl
        RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "the scaling grid diverged from the golden fixture at "
            "N=${n} (rc=${rc}):\n${out}")
    endif()
endforeach()
