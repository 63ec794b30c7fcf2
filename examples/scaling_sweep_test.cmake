# Tests of the dirsim_scaling example. CASE picks one:
#
#  determinism  two identically seeded small-N sweeps, with the
#               coherence invariant checker on, must write artifacts
#               that diff clean under dirsim_report --diff for every N
#               and render byte-identical curve reports; no arguments
#               is a usage error.
#  storage      `run` then `report` on one small sweep prints the
#               directory-storage curve (the scalability_study command
#               line).
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

if(CASE STREQUAL "determinism")
    set(ns "4,6,13")
    set(env ${CMAKE_COMMAND} -E env
        DIRSIM_SCALING_NS=${ns} DIRSIM_SCALING_REFS=40000
        DIRSIM_SCALING_SEED=7 DIRSIM_SCALING_CLUSTER=3)
    set(dir_a "${WORKDIR}/scaling_a")
    set(dir_b "${WORKDIR}/scaling_b")

    run(${env} ${SCALING} run ${dir_a} --invariants 1000)
    run(${env} ${SCALING} run ${dir_b} --invariants 1000)

    foreach(n 4 6 13)
        run(${REPORT} ${dir_a}/scale${n}.jsonl)
        run(${env} ${REPORT} --diff
            ${dir_a}/scale${n}.jsonl ${dir_b}/scale${n}.jsonl)
    endforeach()

    foreach(tag a b)
        execute_process(COMMAND ${env} ${SCALING} report ${dir_${tag}}
                        RESULT_VARIABLE rc
                        OUTPUT_FILE ${WORKDIR}/scaling_report_${tag}.txt)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR "scaling report ${tag} failed (${rc})")
        endif()
    endforeach()

    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${WORKDIR}/scaling_report_a.txt
                    ${WORKDIR}/scaling_report_b.txt
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "scaling reports differ between two runs")
    endif()

    # Usage errors must exit 2, never crash.
    execute_process(COMMAND ${SCALING} RESULT_VARIABLE rc ERROR_QUIET)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR "dirsim_scaling accepted no arguments (rc=${rc})")
    endif()

elseif(CASE STREQUAL "storage")
    set(env ${CMAKE_COMMAND} -E env
        DIRSIM_SCALING_NS=4,8 DIRSIM_SCALING_REFS=60000
        DIRSIM_SCALING_SEED=1)
    set(dir "${WORKDIR}/scaling_storage")
    run(${env} ${SCALING} run ${dir})
    execute_process(COMMAND ${env} ${SCALING} report ${dir}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE report)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "scaling report failed (${rc})")
    endif()
    # The full map grows as N + 1 bits, the two-bit code stays at 2,
    # and Dir4B's four log2 N-bit pointers grow 4 bits per doubling.
    foreach(row "\nDirNNB +5 +9\n" "\nDir0B +2 +2\n"
            "\nDir4B +13 +17\n")
        if(NOT report MATCHES
           "Directory bits per memory block[^\n]*\n.*${row}")
            message(FATAL_ERROR "no storage row '${row}' in:\n${report}")
        endif()
    endforeach()

else()
    message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
