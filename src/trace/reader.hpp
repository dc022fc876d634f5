#pragma once
/// \file reader.hpp
/// Trace file reader + replay helpers shared by tests and trace_inspect.
///
/// File format (little-endian, host == x86-64/aarch64 Linux), written only
/// by trace::TraceWriter:
///   [FileHeader: 24 bytes]   magic 'GLRT', version 1, recordSize 32,
///                            recordCount (patched on finalize; ~0 while
///                            the writer is live => truncated), reserved
///   recordCount times:
///     [u32 length == 32][Record: 32 bytes]
///
/// The per-record length prefix is deliberately redundant with
/// header.recordSize: it turns a torn or corrupted record into a local,
/// detectable error instead of silently desynchronising the rest of the
/// stream. Both readers below run one header check and one record scan;
/// the strict one refuses the first defect, the recovering one keeps the
/// records before it.

#include <cstdint>
#include <string>
#include <vector>

#include "trace/recorder.hpp"

namespace glr::trace {

/// Reads and validates a finalized trace file. Throws std::runtime_error
/// with a specific message on bad magic, an unsupported version or record
/// size, an unfinalized count, a length-prefix mismatch, an unknown event
/// type, fewer records than the header declares (a short final record
/// included), or bytes after them.
std::vector<Record> readTraceFile(const std::string& path);

/// What recoverTraceRecords salvaged from a damaged trace.
struct RecoveredTrace {
  std::vector<Record> records;  // the intact prefix, in file order
  bool wasFinalized = false;    // header held a real count (not ~0)
  std::uint64_t declaredCount = 0;  // that count, when finalized
};

/// Salvages the intact record prefix of a trace whose writer never
/// finalized (SIGKILL, power loss) or whose tail is torn: reads records
/// until EOF, a short read, or a corrupt length prefix/type, keeping
/// everything before the first defect. Only the header's magic, version and
/// record size must be valid — those are written before any record, so any
/// real trace passes. Throws std::runtime_error if even the header is
/// unusable.
RecoveredTrace recoverTraceRecords(const std::string& path);

/// Writes `records` as a finalized trace file at `path` (header with the
/// true count, fsynced). Throws std::runtime_error with path + errno on any
/// I/O failure. This is `trace_inspect recover`'s output side.
void writeTraceFile(const std::string& path,
                    const std::vector<Record>& records);

/// Per-type record counts, one field per GLR_TRACE_EVENTS entry, named
/// after the live ScenarioResult counter each one mirrors.
struct ReplayTotals {
#define GLR_TRACE_TOTAL(name, value, text, counter) std::uint64_t counter = 0;
  GLR_TRACE_EVENTS(GLR_TRACE_TOTAL)
#undef GLR_TRACE_TOTAL
};

ReplayTotals replayTotals(const std::vector<Record>& records);

/// All events touching message (src, seq), in file (== sim event) order.
std::vector<Record> messageTimeline(const std::vector<Record>& records,
                                    std::int32_t src, std::int32_t seq);

/// Human-readable name of an event type ("send", "delivered", ...), or
/// "unknown".
const char* eventTypeName(std::uint8_t type);

}  // namespace glr::trace
