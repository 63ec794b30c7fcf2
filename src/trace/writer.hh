/**
 * @file
 * Trace serialization: a compact binary container and a human-readable
 * text format. Both round-trip exactly (see trace/reader.hh); the
 * binary layout is specified in trace/format.hh and
 * docs/trace-format.md.
 */

#ifndef DIRSIM_TRACE_WRITER_HH
#define DIRSIM_TRACE_WRITER_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "trace/format.hh"
#include "trace/trace.hh"

namespace dirsim
{

/**
 * Write @p trace as a binary container.
 *
 * Defaults to format v2, which carries a validated record count and a
 * trailing FNV-1a checksum so readers detect truncation and
 * corruption; pass traceformat::versionV1 for the legacy layout.
 *
 * @throws UsageError for an unknown @p version, a trace whose
 *         name/CPU count/flags exceed the format's field widths, or
 *         an I/O failure
 */
void writeBinaryTrace(const Trace &trace, std::ostream &os,
                      std::uint16_t version = traceformat::versionV2);

/** Write a binary trace to @p path; throws UsageError on failure. */
void writeBinaryTraceFile(const Trace &trace, const std::string &path,
                          std::uint16_t version =
                              traceformat::versionV2);

/**
 * Text format: '#'-prefixed header lines (name, cpus), then one record
 * per line: "<cpu> <pid> <type> <hex addr> [flag,flag]".
 */
void writeTextTrace(const Trace &trace, std::ostream &os);

/** Write a text trace to @p path; throws UsageError on I/O failure. */
void writeTextTraceFile(const Trace &trace, const std::string &path);

/** Write @p trace to @p path, text or binary (v2) by
 *  isTextTracePath() (trace/reader.hh). */
void writeTraceFile(const Trace &trace, const std::string &path);

} // namespace dirsim

#endif // DIRSIM_TRACE_WRITER_HH
