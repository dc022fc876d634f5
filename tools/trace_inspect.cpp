// trace_inspect — validate, filter, and replay GLR flight-recorder traces.
//
// A trace is the length-prefixed binary file produced by trace::Recorder
// when ScenarioConfig::tracePath is set (format spec: src/trace/reader.hpp).
// This tool is the post-hoc debugging side of the flight recorder: it
// validates the file structurally, reconstructs scenario-level totals
// (delivered/dropped/custody — the same numbers the round-trip differential
// test pins against the live ScenarioResult), and replays a single
// message's hop-by-hop timeline, which is what makes anomalies like the GLR
// manhattan delivery gap debuggable without a re-run.
//
// Usage:
//   trace_inspect validate <trace>             structural check, exit 0/1
//   trace_inspect summary <trace>              replayed totals + time span
//   trace_inspect timeline <trace> <src> <seq> one message's hop timeline
//   trace_inspect filter <trace> [--node N] [--type NAME] [--limit K]
//                                              matching records, one per line
//   trace_inspect recover <trace> [<out>]      salvage the intact prefix of
//                                              an unfinalized/torn trace
//                                              into a finalized file
//   trace_inspect selftest                     write + read back a tiny
//                                              trace, then truncate and
//                                              recover it (CI smoke)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"

namespace {

using glr::trace::EventType;
using glr::trace::Record;

void printRecord(const Record& r) {
  std::printf("%12.6f  %-14s node=%-6d peer=%-6d msg=%d:%d", r.time,
              glr::trace::eventTypeName(r.type), r.node, r.peer, r.msgSrc,
              r.msgSeq);
  if (r.aux != 0) std::printf(" aux=%u", static_cast<unsigned>(r.aux));
  if (r.flag != 0) std::printf(" flag=%u", static_cast<unsigned>(r.flag));
  std::printf("\n");
}

int cmdValidate(const std::string& path) {
  const auto records = glr::trace::readTraceFile(path);
  std::printf("ok: %zu records\n", records.size());
  return 0;
}

int cmdSummary(const std::string& path) {
  const auto records = glr::trace::readTraceFile(path);
  const auto t = glr::trace::replayTotals(records);
  std::printf("records            %zu\n", records.size());
  if (!records.empty()) {
    std::printf("time span          [%.6f, %.6f] sim-s\n",
                records.front().time, records.back().time);
  }
#define GLR_PRINT_TOTAL(name, value, text, counter) \
  std::printf("%-18s %llu\n", text,                 \
              static_cast<unsigned long long>(t.counter));
  GLR_TRACE_EVENTS(GLR_PRINT_TOTAL)
#undef GLR_PRINT_TOTAL
  return 0;
}

int cmdTimeline(const std::string& path, int src, int seq) {
  const auto records = glr::trace::readTraceFile(path);
  const auto timeline = glr::trace::messageTimeline(records, src, seq);
  if (timeline.empty()) {
    std::printf("no events for message %d:%d\n", src, seq);
    return 1;
  }
  std::printf("message %d:%d — %zu events\n", src, seq, timeline.size());
  for (const Record& r : timeline) printRecord(r);
  return 0;
}

int cmdFilter(const std::string& path, int argc, char** argv) {
  int node = -1;
  std::string typeName;
  long limit = -1;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--node" && i + 1 < argc) {
      node = std::atoi(argv[++i]);
    } else if (arg == "--type" && i + 1 < argc) {
      typeName = argv[++i];
    } else if (arg == "--limit" && i + 1 < argc) {
      limit = std::atol(argv[++i]);
    } else {
      std::fprintf(stderr, "filter: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  const auto records = glr::trace::readTraceFile(path);
  long shown = 0;
  for (const Record& r : records) {
    if (node >= 0 && r.node != node) continue;
    if (!typeName.empty() &&
        typeName != glr::trace::eventTypeName(r.type)) {
      continue;
    }
    printRecord(r);
    if (limit >= 0 && ++shown >= limit) break;
  }
  return 0;
}

int cmdRecover(const std::string& path, const std::string& out) {
  const auto recovered = glr::trace::recoverTraceRecords(path);
  if (recovered.wasFinalized &&
      recovered.declaredCount == recovered.records.size()) {
    std::printf("already finalized and intact: %zu records (nothing to do)\n",
                recovered.records.size());
    return 0;
  }
  glr::trace::writeTraceFile(out, recovered.records);
  std::printf("recovered %zu record(s) -> %s (%s)\n",
              recovered.records.size(), out.c_str(),
              recovered.wasFinalized
                  ? "finalized header but torn records"
                  : "writer never finalized — truncated run");
  return 0;
}

// Writes a tiny synthetic trace through the real Recorder (batch writer +
// finalize), reads it back, and checks the replayed totals; then salvages a
// hand-made crashed copy with recover and rewrites it through the same
// writer — a CI smoke for the whole binary path without running a scenario.
int cmdSelftest() {
  const std::string path = "trace_inspect_selftest.bin";
  glr::sim::Simulator sim;
  {
    glr::trace::Recorder rec(sim, path);
    rec.record(EventType::kCreated, 0, 5, 0, 0);
    for (int hop = 0; hop < 3; ++hop) {
      rec.record(EventType::kSend, hop, hop + 1, 0, 0,
                 static_cast<std::uint16_t>(hop));
    }
    rec.record(EventType::kCustodyAccept, 1, 0, 0, 0);
    rec.record(EventType::kDelivered, 5, 0, 0, 0, 3);
    rec.close();
  }
  const auto records = glr::trace::readTraceFile(path);
  const auto t = glr::trace::replayTotals(records);
  const bool ok = records.size() == 6 && t.created == 1 &&
                  t.glrDataSent == 3 && t.glrCustodyAcksSent == 1 &&
                  t.delivered == 1;
  std::remove(path.c_str());
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %zu records\n", records.size());
    return 1;
  }
  const auto timeline = glr::trace::messageTimeline(records, 0, 0);
  if (timeline.size() != 6) {
    std::fprintf(stderr, "selftest FAILED: timeline has %zu events\n",
                 timeline.size());
    return 1;
  }

  // Crash-recovery leg: simulate a SIGKILLed run (header unfinalized,
  // record count ~0, torn tail) and salvage the intact prefix.
  const std::string crashed = "trace_inspect_selftest_crashed.bin";
  {
    glr::trace::FileHeader header;  // recordCount stays ~0: never finalized
    std::FILE* f = std::fopen(crashed.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "selftest FAILED: cannot write %s\n",
                   crashed.c_str());
      return 1;
    }
    std::fwrite(&header, sizeof(header), 1, f);
    const std::uint32_t len = sizeof(Record);
    for (const Record& r : records) {
      std::fwrite(&len, sizeof(len), 1, f);
      std::fwrite(&r, sizeof(r), 1, f);
    }
    std::fwrite(&len, sizeof(len), 1, f);  // torn: a length with no record
    std::fclose(f);
  }
  bool refused = false;
  try {
    (void)glr::trace::readTraceFile(crashed);
  } catch (const std::exception&) {
    refused = true;  // the strict reader must keep rejecting such a file
  }
  const auto recovered = glr::trace::recoverTraceRecords(crashed);
  const std::string salvaged = crashed + ".recovered";
  glr::trace::writeTraceFile(salvaged, recovered.records);
  const auto reread = glr::trace::readTraceFile(salvaged);
  std::remove(crashed.c_str());
  std::remove(salvaged.c_str());
  if (!refused || recovered.wasFinalized ||
      recovered.records.size() != records.size() ||
      reread.size() != records.size()) {
    std::fprintf(stderr,
                 "selftest FAILED: recover salvaged %zu of %zu records "
                 "(refused=%d)\n",
                 recovered.records.size(), records.size(), refused ? 1 : 0);
    return 1;
  }

  std::printf("selftest ok\n");
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: trace_inspect <command> ...\n"
      "  validate <trace>                     structural check\n"
      "  summary <trace>                      replayed totals\n"
      "  timeline <trace> <src> <seq>         one message's hop timeline\n"
      "  filter <trace> [--node N] [--type NAME] [--limit K]\n"
      "  recover <trace> [<out>]              salvage an unfinalized trace\n"
      "  selftest                             write/read a tiny trace\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "selftest") return cmdSelftest();
    if (argc < 3) return usage();
    const std::string path = argv[2];
    if (cmd == "validate") return cmdValidate(path);
    if (cmd == "summary") return cmdSummary(path);
    if (cmd == "timeline") {
      if (argc < 5) return usage();
      return cmdTimeline(path, std::atoi(argv[3]), std::atoi(argv[4]));
    }
    if (cmd == "filter") return cmdFilter(path, argc - 3, argv + 3);
    if (cmd == "recover") {
      return cmdRecover(path, argc >= 4 ? argv[3] : path + ".recovered");
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
