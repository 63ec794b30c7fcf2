# Golden-fixture identity for finite caches: the committed sweep spec
# (tests/golden/finite_sweep.json — every scheme family the registry
# builds x pops/thor/pero x {infinite, 4 KiB 2-way}, with a
# measurement warm-up) runs through `dirsim_sweep run`, and
# `dirsim_report --diff` against tests/golden/finite_sweep.jsonl must
# exit 0.
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

set(out "${WORKDIR}/finite_identity")
file(REMOVE_RECURSE ${out})
run(${SWEEP} run ${GOLDEN}/finite_sweep.json --out ${out})
execute_process(COMMAND ${REPORT} --diff
                    ${GOLDEN}/finite_sweep.jsonl ${out}/results.jsonl
                RESULT_VARIABLE rc OUTPUT_VARIABLE diff)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "the finite sweep diverged from the golden fixture "
        "(rc=${rc}):\n${diff}")
endif()
