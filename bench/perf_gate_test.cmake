# The performance gate (`ctest --preset perf`): measure SOURCE against
# its parent commit with bench/ab_pairs.py on both grids. The parent
# is HEAD when the tree has uncommitted changes and HEAD~1 when it has
# none; it is exported with `git archive` into WORKDIR. ab_pairs.py
# exits 1 on a failed cell, an end-to-end median past its
# BENCHMARK.json bound, or a consistent loss (the tree won at most 1
# of the 10 pairs and its median is worse than the parent's by more
# than the parent's interquartile range). Ten pairs of 6 s per grid
# take about as long as four of 15 s did.
execute_process(
    COMMAND ${GIT} -C ${SOURCE} status --porcelain
    OUTPUT_VARIABLE changes RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "git status failed in ${SOURCE} (${rc})")
endif()
if(changes STREQUAL "")
    set(parent HEAD~1)
else()
    set(parent HEAD)
endif()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR}/parent)
execute_process(
    COMMAND ${GIT} -C ${SOURCE} archive ${parent}
    COMMAND tar -x -C ${WORKDIR}/parent
    RESULTS_VARIABLE rcs)
if(NOT rcs STREQUAL "0;0")
    message(FATAL_ERROR "exporting ${parent} failed (${rcs})")
endif()

message(STATUS "perf gate: ${SOURCE} against ${parent}")
execute_process(
    COMMAND ${PYTHON} ${SOURCE}/bench/ab_pairs.py
        ${WORKDIR}/parent ${SOURCE}
        --workload paper_grid --workload scale1024_grid
        --pairs 10 --seconds 6
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "the tree is slower than ${parent} past a BENCHMARK.json "
        "bound or in almost every pair, or a cell failed (ab_pairs.py "
        "exit ${rc})")
endif()
