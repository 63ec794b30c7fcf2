# Smoke test for the `repro` driver: `repro all` on a small suite
# exits 0 and prints every artifact's section title, and an unknown
# artifact exits nonzero with `error:` and the artifact names on
# stderr.
execute_process(COMMAND ${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
                    ${REPRO} all
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "repro all failed (${rc}):\n${out}")
endif()
foreach(title "Table 1:" "Table 2:" "Table 3:" "Table 4:" "Table 5:"
        "Figure 1:" "Figure 2:" "Figure 3:" "Figure 4:" "Figure 5:"
        "Section 5.1:" "Section 5.2:" "Section 6:")
    string(FIND "${out}" "\n${title}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "repro all printed no '${title}' section:\n${out}")
    endif()
endforeach()

execute_process(COMMAND ${REPRO} nosuch
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "repro accepted an unknown artifact")
endif()
foreach(needle "error:" "table1" "fig5" "sec5.1" "sec6" "all")
    string(FIND "${err}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "repro nosuch printed no '${needle}' on stderr:\n${err}")
    endif()
endforeach()
