# The tier-1 resume smoke for dirsim_sweep (docs/sweep.md):
#
#  1. The spec lints clean (dirsim_sweep plan); a broken variant
#     and one that repeats an axis value exit 1, and a malformed
#     --jobs exits 2 before any cell runs.
#  2. A run under --max-cells 2 stops with exit 3 and writes no
#     results.jsonl — only cached cells.
#  3. Resuming the same spec completes: the resumed leg reports
#     runner.cache.hits > 0 and strictly fewer simulated references
#     than an uninterrupted run.
#  4. The resumed artifacts diff clean against the uninterrupted
#     run's (dirsim_report --diff-clean), and the rendered reports
#     are byte-identical.
#  5. A fully warm leg misses no cell and generates no trace
#     (sweep.materialized_traces = 0), and still reports
#     byte-identically.
function(run out_var)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out ERROR_QUIET)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGN}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_counter jsonl name op value)
    file(READ ${jsonl} contents)
    string(REGEX MATCH "\"${name}\":{\"kind\":\"counter\",\"value\":([0-9]+)}"
           found "${contents}")
    if(NOT found)
        message(FATAL_ERROR "${jsonl} carries no counter ${name}")
    endif()
    if(NOT CMAKE_MATCH_1 ${op} ${value})
        message(FATAL_ERROR
            "${jsonl}: ${name} = ${CMAKE_MATCH_1}, wanted ${op} ${value}")
    endif()
    set(counter_value "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

set(spec "${WORKDIR}/sweep_smoke.spec.json")
set(out_a "${WORKDIR}/sweep_smoke_resumed")
set(out_b "${WORKDIR}/sweep_smoke_scratch")
file(REMOVE_RECURSE ${out_a} ${out_b})
file(WRITE ${spec} "{\n"
    "  \"name\": \"smoke\",\n"
    "  \"schemes\": [\"Dir0B\", \"WTI\"],\n"
    "  \"traces\": [{\"profile\": \"pops\", \"refs\": 20000, \"seed\": 5}],\n"
    "  \"block_bytes\": [16, 32]\n"
    "}\n")

# 1. Lint: the spec is clean; broken variants exit 1 with every
#    problem named; a malformed --jobs is a usage error (exit 2) that
#    runs no cell.
run(ignored ${SWEEP} plan ${spec})
set(bad_spec "${WORKDIR}/sweep_smoke_bad.spec.json")
file(WRITE ${bad_spec} "{\"name\":\"bad\",\"schemes\":[\"Nope\"],"
    "\"traces\":[{\"profile\":\"pops\"}]}\n")
set(dup_spec "${WORKDIR}/sweep_smoke_dup.spec.json")
file(WRITE ${dup_spec} "{\"name\":\"dup\","
    "\"schemes\":[\"Dir0B\",\"dir0b\",\"WTI\"],"
    "\"traces\":[{\"profile\":\"pops\",\"refs\":2000}]}\n")
foreach(broken ${bad_spec} ${dup_spec})
    execute_process(COMMAND ${SWEEP} plan ${broken}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 1 OR NOT err MATCHES "[0-9]+ problem\\(s\\) found")
        message(FATAL_ERROR
            "plan accepted a broken sweep spec (rc=${rc}): ${err}")
    endif()
endforeach()
execute_process(COMMAND ${SWEEP} run ${dup_spec}
                        --out ${WORKDIR}/sweep_smoke_dup
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "schemes\\[1\\]")
    message(FATAL_ERROR
        "run accepted a repeated scheme (rc=${rc}): ${err}")
endif()
execute_process(COMMAND ${SWEEP} run ${spec} --out ${out_a} --jobs -1
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "--jobs")
    message(FATAL_ERROR "run accepted --jobs -1 (rc=${rc}): ${err}")
endif()
if(EXISTS "${out_a}")
    message(FATAL_ERROR "run --jobs -1 started the sweep")
endif()

# 2. Interrupt: the budget stops the run with exit 3, no results.
execute_process(COMMAND ${SWEEP} run ${spec} --out ${out_a}
                        --max-cells 2
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 3)
    message(FATAL_ERROR
        "budgeted run should exit 3, exited ${rc}")
endif()
if(EXISTS "${out_a}/results.jsonl")
    message(FATAL_ERROR "interrupted run must not write results")
endif()

# 3. Resume: completes from the cache.
run(ignored ${SWEEP} resume ${spec} --out ${out_a})
expect_counter("${out_a}/results.jsonl" "runner.cache.hits"
               GREATER 0)
expect_counter("${out_a}/results.jsonl" "runner.grid.simulated_refs"
               GREATER 0)
set(resumed_refs "${counter_value}")

# The uninterrupted reference run (own cold cache).
run(ignored ${SWEEP} run ${spec} --out ${out_b})
expect_counter("${out_b}/results.jsonl" "runner.grid.simulated_refs"
               GREATER ${resumed_refs})

# 4. Identical results: clean artifact diff, byte-identical reports.
run(ignored ${REPORT} --diff-clean
    "${out_a}/results.jsonl" "${out_b}/results.jsonl")
run(report_a ${SWEEP} report ${out_a})
run(report_b ${SWEEP} report ${out_b})
if(NOT report_a STREQUAL report_b)
    message(FATAL_ERROR
        "resumed and uninterrupted reports are not byte-identical")
endif()

# 5. Fully warm: every cell replays and no trace is generated.
run(ignored ${SWEEP} resume ${spec} --out ${out_a})
expect_counter("${out_a}/results.jsonl" "runner.cache.misses" EQUAL 0)
expect_counter("${out_a}/results.jsonl" "sweep.materialized_traces"
               EQUAL 0)
run(report_warm ${SWEEP} report ${out_a})
if(NOT report_warm STREQUAL report_b)
    message(FATAL_ERROR
        "the fully warm leg's report is not byte-identical")
endif()
