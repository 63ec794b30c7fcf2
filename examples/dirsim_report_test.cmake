# Smoke test for the dirsim_report example: produce a small results
# file through `repro table4 --jsonl`, re-render the paper's grid
# views from it (Figure 1 included, from the cell records of an
# untraced run), check that a self-diff reports zero deltas, and
# cross-check the embedded manifest with trace_tool verify.
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

set(results "${WORKDIR}/report_smoke.jsonl")

run(${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
    DIRSIM_TRACE_SAMPLE=0
    ${BENCH} table4 --jsonl ${results})
execute_process(COMMAND ${REPORT} ${results}
                RESULT_VARIABLE rc OUTPUT_VARIABLE report)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "dirsim_report failed (${rc})")
endif()
foreach(title "Table 4:" "Table 5:" "Figure 1:" "Figure 2:" "Figure 3:"
        "Figure 4:" "Figure 5:" "Section 5.1:")
    string(FIND "${report}" "\n${title}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "the report has no '${title}' section:\n${report}")
    endif()
endforeach()
run(${REPORT} --diff ${results} ${results})
run(${TOOL} verify ${results})

# A missing results file must fail cleanly (exit 2, no crash).
execute_process(COMMAND ${REPORT} ${WORKDIR}/no_such_results.jsonl
                RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
        "dirsim_report accepted a missing file (rc=${rc})")
endif()
