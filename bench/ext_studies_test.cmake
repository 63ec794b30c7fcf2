# Smoke test for the extension studies: each ext_* binary named in
# STUDIES (comma-separated, built in BENCH_DIR) runs on a small suite,
# exits 0 and prints its "Extension:" banner line.
string(REPLACE "," ";" studies "${STUDIES}")
foreach(study IN LISTS studies)
    execute_process(COMMAND ${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
                        ${BENCH_DIR}/${study}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${study} failed (${rc}):\n${out}\n${err}")
    endif()
    string(FIND "${out}" "Reproduction of Extension: " at)
    if(at EQUAL -1)
        message(FATAL_ERROR "${study} printed no 'Extension:' banner:\n${out}")
    endif()
endforeach()
