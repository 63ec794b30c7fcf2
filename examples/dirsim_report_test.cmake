# Smoke test for the dirsim_report example: produce a small results
# file through a repro benchmark's --jsonl flag, re-render the paper
# tables from it (Figure 1 included, from the cell records of an
# untraced run), check that a self-diff reports zero deltas, and
# cross-check the embedded manifest with dirsim_validate --manifest.
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

set(results "${WORKDIR}/report_smoke.jsonl")

run(${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
    DIRSIM_TRACE_SAMPLE=0
    ${BENCH} --jsonl ${results})
execute_process(COMMAND ${REPORT} ${results}
                RESULT_VARIABLE rc OUTPUT_VARIABLE report)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dirsim_report failed (${rc})")
endif()
string(FIND "${report}" "Figure 1" figure1)
if(figure1 EQUAL -1)
    message(FATAL_ERROR "the report has no Figure 1 section:\n${report}")
endif()
run(${REPORT} --diff ${results} ${results})
run(${VALIDATOR} --manifest ${results})

# A missing results file must fail cleanly (exit 2, no crash).
execute_process(COMMAND ${REPORT} ${WORKDIR}/no_such_results.jsonl
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
        "dirsim_report accepted a missing file (rc=${rc})")
endif()
