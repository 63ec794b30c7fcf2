# Golden-fixture identity for a committed sweep: the spec
# tests/golden/${FIXTURE}.json runs through `dirsim_sweep run`, and
# `dirsim_report --diff` against tests/golden/${FIXTURE}.jsonl must
# exit 0.
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc
                    OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

set(out "${WORKDIR}/${FIXTURE}_identity")
file(REMOVE_RECURSE ${out})
run(${SWEEP} run ${GOLDEN}/${FIXTURE}.json --out ${out})
execute_process(COMMAND ${REPORT} --diff
                    ${GOLDEN}/${FIXTURE}.jsonl ${out}/results.jsonl
                RESULT_VARIABLE rc OUTPUT_VARIABLE diff)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "the ${FIXTURE} sweep diverged from the golden fixture "
        "(rc=${rc}):\n${diff}")
endif()
