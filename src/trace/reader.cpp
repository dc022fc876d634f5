#include "trace/reader.hpp"

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>

namespace glr::trace {

namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("trace '" + path + "': " + what);
}

bool knownType(std::uint8_t type) {
  switch (type) {
#define GLR_TRACE_CASE(name, value, text, counter) case value:
    GLR_TRACE_EVENTS(GLR_TRACE_CASE)
#undef GLR_TRACE_CASE
    return true;
  }
  return false;
}

// The one reader loop. Checks the header, then scans records until EOF or
// the first defect. Strict mode reads only the declared count and throws on
// a defect, an unfinalized header or bytes after the last record; recover
// mode keeps the records before the first defect. Nothing is reserved from
// the header's count: a file may lie about it.
RecoveredTrace scan(const std::string& path, bool strict) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) fail(path, "cannot open for reading");

  FileHeader header;
  if (std::fread(&header, sizeof(header), 1, file.get()) != 1) {
    fail(path, "short file: header missing");
  }
  if (header.magic != FileHeader{}.magic) fail(path, "bad magic");
  if (header.version != 1) {
    fail(path, "unsupported version " + std::to_string(header.version));
  }
  if (header.recordSize != sizeof(Record)) {
    fail(path,
         "unsupported record size " + std::to_string(header.recordSize));
  }

  RecoveredTrace out;
  out.wasFinalized = header.recordCount != ~std::uint64_t{0};
  out.declaredCount = out.wasFinalized ? header.recordCount : 0;
  if (strict && !out.wasFinalized) {
    fail(path, "unfinalized trace (writer never closed — truncated run?)");
  }

  const std::uint64_t limit =
      strict ? header.recordCount : std::numeric_limits<std::uint64_t>::max();
  for (std::uint64_t i = 0; i < limit; ++i) {
    std::uint32_t len = 0;
    Record r;
    std::string defect;
    if (std::fread(&len, sizeof(len), 1, file.get()) != 1) {
      defect = "truncated: " + std::to_string(i) + " of " +
               std::to_string(header.recordCount) + " records present";
    } else if (len != sizeof(Record)) {
      defect = "corrupt record " + std::to_string(i) + ": length prefix " +
               std::to_string(len) + " (expected " +
               std::to_string(sizeof(Record)) + ")";
    } else if (std::fread(&r, sizeof(r), 1, file.get()) != 1) {
      defect = "truncated mid-record at index " + std::to_string(i);
    } else if (!knownType(r.type)) {
      defect = "corrupt record " + std::to_string(i) + ": unknown type " +
               std::to_string(r.type);
    } else {
      out.records.push_back(r);
      continue;
    }
    if (strict) fail(path, defect);
    break;
  }
  char extra = 0;
  if (strict && std::fread(&extra, 1, 1, file.get()) == 1) {
    fail(path, "trailing bytes after declared record count");
  }
  return out;
}

}  // namespace

std::vector<Record> readTraceFile(const std::string& path) {
  return scan(path, /*strict=*/true).records;
}

RecoveredTrace recoverTraceRecords(const std::string& path) {
  return scan(path, /*strict=*/false);
}

void writeTraceFile(const std::string& path,
                    const std::vector<Record>& records) {
  TraceWriter writer(path);
  for (const Record& r : records) writer.append(r);
  if (const int err = writer.finish()) {
    fail(path, "write failed: " + std::string{std::strerror(err)});
  }
}

ReplayTotals replayTotals(const std::vector<Record>& records) {
  ReplayTotals t;
  for (const Record& r : records) {
    switch (r.type) {
#define GLR_TRACE_COUNT(name, value, text, counter) \
  case value:                                       \
    ++t.counter;                                    \
    break;
      GLR_TRACE_EVENTS(GLR_TRACE_COUNT)
#undef GLR_TRACE_COUNT
    }
  }
  return t;
}

std::vector<Record> messageTimeline(const std::vector<Record>& records,
                                    std::int32_t src, std::int32_t seq) {
  std::vector<Record> out;
  for (const Record& r : records) {
    if (r.msgSrc == src && r.msgSeq == seq) out.push_back(r);
  }
  return out;
}

const char* eventTypeName(std::uint8_t type) {
  switch (type) {
#define GLR_TRACE_NAME(name, value, text, counter) \
  case value:                                      \
    return text;
    GLR_TRACE_EVENTS(GLR_TRACE_NAME)
#undef GLR_TRACE_NAME
  }
  return "unknown";
}

}  // namespace glr::trace
