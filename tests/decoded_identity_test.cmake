# Golden-fixture identity for the paper grid: run the small repro grid
# (DIRSIM_SUITE_REFS=20000) and require `dirsim_report --diff` against
# the committed fixture (tests/golden/table4_20k.jsonl) to exit 0. The
# diff compares every deterministic per-cell metric (events, ops, the
# Figure 1 histogram, derived costs) and ignores wall-clock fields.
# The fixture's counters define correct results; it never changes.
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

set(result "${WORKDIR}/decoded_identity.jsonl")
run(${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
    ${BENCH} table4 --jsonl ${result})
execute_process(COMMAND ${REPORT} --diff
                    ${GOLDEN}/table4_20k.jsonl ${result}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "the paper grid diverged from the golden fixture "
        "(rc=${rc}):\n${out}")
endif()
