# End-to-end tracer-identity check: the coherence event tracer is
# observation-only, so a traced grid must produce deterministic
# artifacts bit-identical to an untraced one. Run the same small
# repro grid with DIRSIM_TRACE_SAMPLE=0 (tracer off) and
# DIRSIM_TRACE_SAMPLE=4 (tracer on, with a tiny ring to exercise the
# drop path), then require `dirsim_report --diff` to exit 0 — it
# compares every deterministic per-cell metric (events, ops, the
# Figure 1 histogram, derived costs) and ignores wall-clock fields.
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

set(plain "${WORKDIR}/tracer_identity_plain.jsonl")
set(traced "${WORKDIR}/tracer_identity_traced.jsonl")

run(${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
    DIRSIM_TRACE_SAMPLE=0
    ${BENCH} table4 --jsonl ${plain})
run(${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
    DIRSIM_TRACE_SAMPLE=4 DIRSIM_TRACE_RING=64
    ${BENCH} table4 --jsonl ${traced})

execute_process(COMMAND ${REPORT} --diff ${plain} ${traced}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "traced run diverged from untraced run (rc=${rc}):\n${out}")
endif()
