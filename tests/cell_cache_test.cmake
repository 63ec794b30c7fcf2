# End-to-end cell-cache correctness: the content-addressed result
# cache (DIRSIM_CACHE_DIR, obs/cell_cache.hh) must be invisible in
# the results and honest in its accounting.
#
#  1. Cold run into an empty cache directory: every cell simulates
#     and is stored.
#  2. Warm run: every cell replays from the cache — the metrics line
#     must report zero misses and zero simulated references, and
#     `dirsim_report --diff` against the cold run must exit 0.
#  3. One cache entry is corrupted in place: that cell misses, is
#     re-simulated and re-stored, and the results still diff clean.
function(run)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}")
    endif()
endfunction()

function(diff_clean a b what)
    execute_process(COMMAND ${REPORT} --diff ${a} ${b}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${what} diverged from the cold run (rc=${rc}):\n${out}")
    endif()
endfunction()

# The metrics line serializes counters as
#   "<name>":{"kind":"counter","value":<N>}
function(expect_counter jsonl name value)
    file(READ ${jsonl} contents)
    set(needle "\"${name}\":{\"kind\":\"counter\",\"value\":${value}}")
    string(FIND "${contents}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "${jsonl} does not report ${name} = ${value}")
    endif()
endfunction()

set(cache_dir "${WORKDIR}/cell_cache_test.cache")
set(cold "${WORKDIR}/cell_cache_cold.jsonl")
set(warm "${WORKDIR}/cell_cache_warm.jsonl")
set(repaired "${WORKDIR}/cell_cache_repaired.jsonl")

file(REMOVE_RECURSE ${cache_dir})
file(MAKE_DIRECTORY ${cache_dir})

run(${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
    DIRSIM_CACHE_DIR=${cache_dir}
    ${BENCH} table4 --jsonl ${cold})
expect_counter(${cold} "runner.cache.hits" 0)

# Fully warm: 12 cells (4 schemes x 3 traces), all replayed, nothing
# simulated.
run(${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
    DIRSIM_CACHE_DIR=${cache_dir}
    ${BENCH} table4 --jsonl ${warm})
diff_clean(${cold} ${warm} "the warm-cache run")
expect_counter(${warm} "runner.cache.misses" 0)
expect_counter(${warm} "runner.cache.hits" 12)
expect_counter(${warm} "runner.grid.simulated_refs" 0)

# Corrupt one entry: the engine must treat it as a miss, not trust it.
file(GLOB entries "${cache_dir}/*.cell.json")
list(GET entries 0 victim)
file(WRITE ${victim} "this is not a cell record\n")
run(${CMAKE_COMMAND} -E env DIRSIM_SUITE_REFS=20000
    DIRSIM_CACHE_DIR=${cache_dir}
    ${BENCH} table4 --jsonl ${repaired})
diff_clean(${cold} ${repaired} "the corrupted-entry run")
expect_counter(${repaired} "runner.cache.misses" 1)
expect_counter(${repaired} "runner.cache.hits" 11)
