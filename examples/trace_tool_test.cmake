# End-to-end tests of the trace_tool example. CASE picks one of four
# tests; each runs on its own files, so they may run in parallel:
#
#  roundtrip  generate -> convert: `stats` on the binary trace and on
#             its text copy prints the same Table 3 column and segment
#             breakdown; filter --no-locks keeps fewer records than it
#             read, and `simulate` runs the filtered trace.
#  inspect    `generate`, `stats` and `simulate` on a workload print
#             Table 3 and every paper view (the trace_inspector
#             command line).
#  simulate   `simulate` under one scheme applies SimConfig's
#             environment and rejects a bad one (the protocol_explorer
#             command line).
#  validate   `stats` on a binary and a text trace; a malformed text
#             trace is rejected by `stats` and `verify` with exit 1 and
#             no crash, a malformed number is a usage error; `verify`
#             on a one-cell sweep over a trace file is OK while the
#             file is unchanged, MISMATCH once it is regenerated and
#             MISSING once it is deleted (the dirsim_validate command
#             lines).

# Run a command that must exit @p want; its stdout lands in out_var.
function(expect want out_var)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL want)
        message(FATAL_ERROR
            "exit ${rc}, wanted ${want}: ${ARGN}\n${out}${err}")
    endif()
    set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(expect_in text needle)
    string(FIND "${text}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "no '${needle}' in:\n${text}")
    endif()
endfunction()

# The output of `stats` from its Table 3 on.
function(table3 out_var text)
    string(FIND "${text}" "Table 3:" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "stats printed no Table 3:\n${text}")
    endif()
    string(SUBSTRING "${text}" ${at} -1 tail)
    set(${out_var} "${tail}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "roundtrip")
    set(bin "${WORKDIR}/tt_smoke.trace")
    set(txt "${WORKDIR}/tt_smoke.txt")
    set(filtered "${WORKDIR}/tt_smoke_nolocks.trace")

    # The text round trip.
    expect(0 ignored ${TOOL} generate pops 40000 5 ${bin})
    expect(0 ignored ${TOOL} convert ${bin} ${txt})
    expect(0 bin_stats ${TOOL} stats ${bin})
    expect(0 txt_stats ${TOOL} stats ${txt})
    expect_in("${bin_stats}" "${bin}: OK (binary v2, 40,")
    expect_in("${txt_stats}" "${txt}: OK (text, 40,")
    table3(bin_table "${bin_stats}")
    table3(txt_table "${txt_stats}")
    if(NOT bin_table STREQUAL txt_table)
        message(FATAL_ERROR "the text copy characterizes differently:\n"
            "${bin_table}\nvs\n${txt_table}")
    endif()
    expect_in("${bin_table}" "references by segment")

    # Filtering drops the lock references.
    expect(0 kept ${TOOL} filter --no-locks ${bin} ${filtered})
    if(NOT kept MATCHES "kept ([0-9]+) of ([0-9]+) references")
        message(FATAL_ERROR "filter printed no counts: ${kept}")
    endif()
    if(NOT CMAKE_MATCH_1 LESS CMAKE_MATCH_2)
        message(FATAL_ERROR "filter --no-locks kept every record: ${kept}")
    endif()
    expect(0 filtered_run ${TOOL} simulate ${filtered} Dir0B)
    expect_in("${filtered_run}" "Table 4:")

elseif(CASE STREQUAL "inspect")
    # Characterize a workload and replay it under every scheme.
    set(pero "${WORKDIR}/tt_inspect_pero.trace")
    expect(0 ignored ${TOOL} generate pero 60000 1 ${pero})
    expect(0 pero_stats ${TOOL} stats ${pero})
    expect_in("${pero_stats}" "spin/DRd")
    expect_in("${pero_stats}" "references by segment")
    expect(0 pero_run ${TOOL} simulate ${pero})
    foreach(title "Table 4:" "Table 5:" "Figure 1:" "Figure 2:"
            "Figure 3:" "Figure 4:" "Figure 5:" "Section 5.1:"
            "Berkeley" "DirCV")
        expect_in("${pero_run}" "${title}")
    endforeach()

elseif(CASE STREQUAL "simulate")
    # One scheme under SimConfig's environment.
    set(pops "${WORKDIR}/tt_simulate_pops.trace")
    expect(0 ignored ${TOOL} generate pops 60000 1 ${pops})
    expect(0 plain_run ${TOOL} simulate ${pops} Dir2B)
    expect_in("${plain_run}" "Table 4:")
    expect(0 env_run ${CMAKE_COMMAND} -E env DIRSIM_BLOCK_BYTES=64
           DIRSIM_WARMUP_REFS=1000 DIRSIM_SHARING=processor
           ${TOOL} simulate ${pops} Dir2B)
    if(plain_run STREQUAL env_run)
        message(FATAL_ERROR "simulate ignored the DIRSIM_* environment")
    endif()
    expect(1 ignored ${CMAKE_COMMAND} -E env DIRSIM_BLOCK_BYTES=17
           ${TOOL} simulate ${pops} Dir2B)
    expect(2 ignored ${TOOL} simulate)

elseif(CASE STREQUAL "validate")
    set(bin "${WORKDIR}/tt_validate.trace")
    set(txt "${WORKDIR}/tt_validate.txt")
    expect(0 ignored ${TOOL} generate pops 40000 5 ${bin})
    expect(0 ignored ${TOOL} convert ${bin} ${txt})
    expect(0 both ${TOOL} stats ${bin} ${txt})
    expect_in("${both}" "${bin}: OK (binary v2, 40,")
    expect_in("${both}" "${txt}: OK (text, 40,")
    expect_in("${both}" "shared data blocks")

    # Bad input.
    set(bad "${WORKDIR}/tt_validate_bad.txt")
    file(WRITE ${bad} "# cpus: banana\n0 1 read 100 -\n")
    expect(1 bad_stats ${TOOL} stats ${bad})
    expect_in("${bad_stats}" "${bad}: INVALID")
    expect(1 ignored ${TOOL} stats ${bin} ${bad})
    expect(1 ignored ${TOOL} verify ${bad})
    set(short "${WORKDIR}/tt_validate_5x.trace")
    file(REMOVE ${short})
    expect(2 ignored ${TOOL} generate pops 5x 5 ${short})
    if(EXISTS ${short})
        message(FATAL_ERROR "generate wrote a trace for <refs> 5x")
    endif()
    expect(2 ignored ${TOOL} stats)

    # verify against a sweep over a trace file.
    set(checked "${WORKDIR}/tt_verify.trace")
    set(spec "${WORKDIR}/tt_verify.spec.json")
    set(out "${WORKDIR}/tt_verify_sweep")
    file(REMOVE_RECURSE ${out})
    expect(0 ignored ${TOOL} generate pops 20000 5 ${checked})
    file(WRITE ${spec} "{\"name\": \"verify\", \"schemes\": [\"Dir0B\"], "
        "\"traces\": [{\"file\": \"${checked}\"}]}\n")
    expect(0 ignored ${SWEEP} run ${spec} --out ${out})
    set(results "${out}/results.jsonl")
    expect(0 verified ${TOOL} verify ${results})
    expect_in("${verified}" ": OK (${checked})")
    expect_in("${verified}" "1 trace file(s) checked, all match")
    expect(0 ignored ${TOOL} generate pops 20000 6 ${checked})
    expect(1 changed ${TOOL} verify ${results})
    expect_in("${changed}" ": MISMATCH (${checked}")
    file(REMOVE ${checked})
    expect(1 missing ${TOOL} verify ${results})
    expect_in("${missing}" ": MISSING (${checked}")

else()
    message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
