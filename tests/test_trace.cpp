// Flight-recorder tests (src/trace/): the round-trip differential that
// pins the recorder's losslessness, the structural error paths of the
// reader, and the TracingOff golden differential that pins tracing as
// default-off and invisible.
//
// The round-trip is the load-bearing test: a mid-size GLR scenario with
// every event source active (custody, watermark refusals, evictions, TTL
// expiries, adversary-driven suspicion) is recorded, the file replayed, and
// the reconstructed totals must equal the live ScenarioResult *exactly* —
// the recorder never drops a record (it back-pressures instead), so replay
// is not a sample, it is the run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "checkpoint/scenario_checkpoint.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "sim/simulator.hpp"
#include "trace/reader.hpp"
#include "trace/recorder.hpp"

namespace {

using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::trace::EventType;
using glr::trace::Record;

/// Unique-ish temp path under the build dir (tests run from build/).
std::string tempPath(const char* name) {
  return std::string("test_trace_") + name + ".bin";
}

struct PathGuard {
  explicit PathGuard(std::string p) : path(std::move(p)) {}
  ~PathGuard() { std::remove(path.c_str()); }
  std::string path;
};

/// Mid-size GLR scenario with every trace event source active: bounded
/// storage (evictions), TTL (expiries), custody watermark (refusals), and
/// misbehaving nodes + recovery (suspicions, recovery-spray sends).
ScenarioConfig tracedScenario() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 40;
  cfg.trafficNodes = 35;
  cfg.simTime = 200.0;
  cfg.numMessages = 250;
  cfg.radius = 100.0;
  cfg.seed = 11;
  cfg.storageLimit = 12;
  cfg.messageTtl = 80.0;
  cfg.custodyWatermark = 11;
  cfg.glrRecovery = true;
  cfg.faults.enabled = true;
  cfg.faults.params.adversary.blackholeFraction = 0.15;
  return cfg;
}

// ---------------------------------------------------------------------------
// Round-trip differential: replayed totals == live ScenarioResult, exactly.
// ---------------------------------------------------------------------------

TEST(TraceRoundTrip, ReplayedTotalsEqualLiveResultExactly) {
  const PathGuard guard{tempPath("roundtrip")};
  ScenarioConfig cfg = tracedScenario();
  cfg.tracePath = guard.path;
  const ScenarioResult r = runScenario(cfg);

  const std::vector<Record> records = glr::trace::readTraceFile(guard.path);
  EXPECT_EQ(records.size(), r.traceEventsRecorded);
  const auto totals = glr::trace::replayTotals(records);

  EXPECT_EQ(totals.created, r.created);
  EXPECT_EQ(totals.delivered, r.delivered);
  EXPECT_EQ(totals.duplicates, r.duplicateDeliveries);
  EXPECT_EQ(totals.sends, r.glrDataSent);
  EXPECT_EQ(totals.custodyAccepts, r.glrCustodyAcksSent);
  EXPECT_EQ(totals.custodyRefusals, r.custodyRefusals);
  EXPECT_EQ(totals.drops, r.bufferEvictions);
  EXPECT_EQ(totals.expiries, r.expiredDrops);
  EXPECT_EQ(totals.suspicions, r.glrSuspicionsRaised);

  // The scenario must actually exercise every event source, or the
  // equalities above are vacuous.
  EXPECT_GT(totals.created, 0u);
  EXPECT_GT(totals.delivered, 0u);
  EXPECT_GT(totals.sends, 0u);
  EXPECT_GT(totals.custodyAccepts, 0u);
  EXPECT_GT(totals.drops, 0u);
  EXPECT_GT(totals.expiries, 0u);
  EXPECT_GT(totals.suspicions, 0u);

  // Records are stamped at the recording event's sim time, so they are
  // nondecreasing in file order and inside the horizon.
  for (std::size_t i = 1; i < records.size(); ++i) {
    ASSERT_LE(records[i - 1].time, records[i].time) << "at record " << i;
  }
  EXPECT_LE(records.back().time, cfg.simTime);

  // Latency reconstruction: kCreated is recorded in the same simulator
  // event that stamps Message::created, and kDelivered in the same event
  // as the metrics update, so creation-to-delivery spans rebuilt from the
  // trace are bit-exact — summed in file order (== delivery order) they
  // reproduce avgLatency to the last bit, and their exact quantiles bound
  // the sketch estimates (ISSUE acceptance: within 1% relative).
  std::unordered_map<std::uint64_t, double> createdAt;
  std::vector<double> latencies;
  const auto keyOf = [](const Record& rec) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                rec.msgSrc))
            << 32) |
           static_cast<std::uint32_t>(rec.msgSeq);
  };
  for (const Record& rec : records) {
    if (rec.type == static_cast<std::uint8_t>(EventType::kCreated)) {
      createdAt.emplace(keyOf(rec), rec.time);
    } else if (rec.type ==
               static_cast<std::uint8_t>(EventType::kDelivered)) {
      const auto it = createdAt.find(keyOf(rec));
      ASSERT_NE(it, createdAt.end()) << "delivery without creation";
      latencies.push_back(rec.time - it->second);
    }
  }
  ASSERT_EQ(latencies.size(), r.delivered);
  double sum = 0.0;
  for (const double l : latencies) sum += l;
  EXPECT_DOUBLE_EQ(sum / static_cast<double>(latencies.size()),
                   r.avgLatency);

  std::sort(latencies.begin(), latencies.end());
  const auto exactQ = [&](double q) {
    const double target = q * static_cast<double>(latencies.size());
    if (target <= 0.5) return latencies.front();
    if (target >= static_cast<double>(latencies.size()) - 0.5) {
      return latencies.back();
    }
    const auto lo = static_cast<std::size_t>(target - 0.5);
    const double frac = (target - 0.5) - static_cast<double>(lo);
    return latencies[lo] + frac * (latencies[lo + 1] - latencies[lo]);
  };
  EXPECT_NEAR(r.latencyP50, exactQ(0.50), 0.01 * exactQ(0.50));
  EXPECT_NEAR(r.latencyP90, exactQ(0.90), 0.01 * exactQ(0.90));
  EXPECT_NEAR(r.latencyP99, exactQ(0.99), 0.01 * exactQ(0.99));
  EXPECT_EQ(r.latencyMin, latencies.front());
  EXPECT_EQ(r.latencyMax, latencies.back());
}

TEST(TraceRoundTrip, TracedRunResultsMatchUntracedBitIdentically) {
  // Tracing observes; it must not perturb. Same scenario with and without
  // the recorder: every result field except traceEventsRecorded identical.
  const PathGuard guard{tempPath("perturb")};
  ScenarioConfig traced = tracedScenario();
  traced.tracePath = guard.path;
  ScenarioResult a = runScenario(traced);
  const ScenarioResult b = runScenario(tracedScenario());
  EXPECT_GT(a.traceEventsRecorded, 0u);
  EXPECT_EQ(b.traceEventsRecorded, 0u);
  a.traceEventsRecorded = 0;  // the only legitimate difference
  EXPECT_TRUE(glr::experiment::bitIdenticalIgnoringWall(a, b));
}

TEST(TraceRoundTrip, MessageTimelineIsCoherent) {
  const PathGuard guard{tempPath("timeline")};
  ScenarioConfig cfg = tracedScenario();
  cfg.tracePath = guard.path;
  (void)runScenario(cfg);
  const auto records = glr::trace::readTraceFile(guard.path);

  // Pick the first delivered message and replay its hop timeline.
  std::int32_t src = -1;
  std::int32_t seq = -1;
  for (const Record& rec : records) {
    if (rec.type == static_cast<std::uint8_t>(EventType::kDelivered)) {
      src = rec.msgSrc;
      seq = rec.msgSeq;
      break;
    }
  }
  ASSERT_GE(src, 0);
  const auto timeline = glr::trace::messageTimeline(records, src, seq);
  ASSERT_FALSE(timeline.empty());
  // Starts with creation at the origin, contains at least one send, and
  // every event names this message.
  EXPECT_EQ(timeline.front().type,
            static_cast<std::uint8_t>(EventType::kCreated));
  EXPECT_EQ(timeline.front().node, src);
  bool sawSend = false;
  bool sawDelivery = false;
  for (const Record& rec : timeline) {
    EXPECT_EQ(rec.msgSrc, src);
    EXPECT_EQ(rec.msgSeq, seq);
    sawSend |= rec.type == static_cast<std::uint8_t>(EventType::kSend);
    sawDelivery |=
        rec.type == static_cast<std::uint8_t>(EventType::kDelivered);
  }
  EXPECT_TRUE(sawSend);
  EXPECT_TRUE(sawDelivery);
}

// ---------------------------------------------------------------------------
// Structural error paths: truncation and corruption are loud, not silent.
// ---------------------------------------------------------------------------

/// Writes a small valid trace via the real recorder and returns its bytes.
std::vector<unsigned char> smallValidTrace(const std::string& path) {
  glr::sim::Simulator sim;
  glr::trace::Recorder rec(sim, path, 64);
  rec.record(EventType::kCreated, 0, 9, 0, 0);
  rec.record(EventType::kSend, 0, 1, 0, 0);
  rec.record(EventType::kSend, 1, 9, 0, 0, 1);
  rec.record(EventType::kDelivered, 9, 0, 0, 0, 2);
  rec.close();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<unsigned char> bytes;
  int c = 0;
  while ((c = std::fgetc(f)) != EOF) {
    bytes.push_back(static_cast<unsigned char>(c));
  }
  std::fclose(f);
  return bytes;
}

void writeBytes(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(TraceErrors, ValidFileReadsBack) {
  const PathGuard guard{tempPath("valid")};
  const auto bytes = smallValidTrace(guard.path);
  ASSERT_FALSE(bytes.empty());
  const auto records = glr::trace::readTraceFile(guard.path);
  EXPECT_EQ(records.size(), 4u);
  EXPECT_EQ(glr::trace::replayTotals(records).sends, 2u);
}

TEST(TraceErrors, TruncatedFileThrows) {
  const PathGuard guard{tempPath("truncated")};
  auto bytes = smallValidTrace(guard.path);
  // Drop the last record (and a bit more, landing mid-record).
  bytes.resize(bytes.size() - 40);
  writeBytes(guard.path, bytes);
  EXPECT_THROW((void)glr::trace::readTraceFile(guard.path),
               std::runtime_error);
}

TEST(TraceErrors, UnfinalizedHeaderThrows) {
  const PathGuard guard{tempPath("unfinalized")};
  auto bytes = smallValidTrace(guard.path);
  // Restore the live-writer sentinel count (~0) at header offset 8.
  for (int i = 0; i < 8; ++i) bytes[8 + i] = 0xFF;
  writeBytes(guard.path, bytes);
  EXPECT_THROW((void)glr::trace::readTraceFile(guard.path),
               std::runtime_error);
}

TEST(TraceErrors, CorruptLengthPrefixThrows) {
  const PathGuard guard{tempPath("corrupt-len")};
  auto bytes = smallValidTrace(guard.path);
  // Second record's length prefix: header(24) + rec0(4 + 32) = offset 60.
  bytes[60] = 0x99;
  writeBytes(guard.path, bytes);
  EXPECT_THROW((void)glr::trace::readTraceFile(guard.path),
               std::runtime_error);
}

TEST(TraceErrors, CorruptEventTypeThrows) {
  const PathGuard guard{tempPath("corrupt-type")};
  auto bytes = smallValidTrace(guard.path);
  // First record starts at 28; type is at offset 24 within the record
  // (time 8 + four int32s 16 = 24, then aux 2, then type).
  bytes[28 + 26] = 0xEE;
  writeBytes(guard.path, bytes);
  EXPECT_THROW((void)glr::trace::readTraceFile(guard.path),
               std::runtime_error);
}

TEST(TraceErrors, BadMagicThrows) {
  const PathGuard guard{tempPath("magic")};
  auto bytes = smallValidTrace(guard.path);
  bytes[0] = 'X';
  writeBytes(guard.path, bytes);
  EXPECT_THROW((void)glr::trace::readTraceFile(guard.path),
               std::runtime_error);
}

TEST(TraceErrors, TrailingGarbageThrows) {
  const PathGuard guard{tempPath("trailing")};
  auto bytes = smallValidTrace(guard.path);
  bytes.push_back(0xAB);
  writeBytes(guard.path, bytes);
  EXPECT_THROW((void)glr::trace::readTraceFile(guard.path),
               std::runtime_error);
}

TEST(TraceErrors, MissingFileThrows) {
  EXPECT_THROW((void)glr::trace::readTraceFile("no_such_trace_file.bin"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// TracingOff golden differential: the observability knobs at their defaults
// leave the config KernelRegression pins unchanged — and that pin holds
// traceEventsRecorded at zero and the always-on latency sketch's fields.
// ---------------------------------------------------------------------------

TEST(TracingOff, DefaultKnobsReproduceKernelGoldenBitIdentically) {
  ScenarioConfig cfg;
  cfg.tracePath.clear();
  cfg.traceRingCapacity = 1 << 16;
  cfg.nodeCountersPath.clear();
  const ScenarioConfig defaults;
  EXPECT_EQ(glr::ckpt::configDigest(cfg), glr::ckpt::configDigest(defaults));
  // The digest skips output paths and the ring size; compare them directly.
  EXPECT_EQ(cfg.tracePath, defaults.tracePath);
  EXPECT_EQ(cfg.traceRingCapacity, defaults.traceRingCapacity);
  EXPECT_EQ(cfg.nodeCountersPath, defaults.nodeCountersPath);
}

// ---------------------------------------------------------------------------
// Per-node counter export rides the same wiring; smoke its formats here.
// ---------------------------------------------------------------------------

TEST(NodeExport, WritesJsonAndCsv) {
  const PathGuard json{std::string("test_trace_nodes.json")};
  const PathGuard csv{std::string("test_trace_nodes.csv")};
  ScenarioConfig cfg;
  cfg.numNodes = 12;
  cfg.trafficNodes = 10;
  cfg.simTime = 60.0;
  cfg.numMessages = 20;
  cfg.radius = 120.0;
  cfg.seed = 3;
  cfg.nodeCountersPath = json.path;
  (void)runScenario(cfg);
  cfg.nodeCountersPath = csv.path;
  const ScenarioResult r = runScenario(cfg);

  // CSV: header + one row per node; the dataSent column sums to the
  // scenario total.
  std::FILE* f = std::fopen(csv.path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[2048];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line).rfind("node,", 0), 0u);
  int rows = 0;
  std::uint64_t dataSentSum = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    ++rows;
    // dataSent is column 11 (0-based 10).
    std::string s{line};
    std::size_t pos = 0;
    for (int c = 0; c < 10; ++c) pos = s.find(',', pos) + 1;
    dataSentSum += std::strtoull(s.c_str() + pos, nullptr, 10);
  }
  std::fclose(f);
  EXPECT_EQ(rows, cfg.numNodes);
  EXPECT_EQ(dataSentSum, r.glrDataSent);

  // JSON: parses far enough to count rows.
  f = std::fopen(json.path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  int jsonRows = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::string(line).find("\"node\":") != std::string::npos) ++jsonRows;
  }
  std::fclose(f);
  EXPECT_EQ(jsonRows, cfg.numNodes);
}

TEST(NodeExport, RejectsUnknownExtension) {
  ScenarioConfig cfg;
  cfg.numNodes = 5;
  cfg.trafficNodes = 4;
  cfg.simTime = 5.0;
  cfg.numMessages = 2;
  cfg.nodeCountersPath = "nodes.xml";
  EXPECT_THROW((void)runScenario(cfg), std::invalid_argument);
}

TEST(NodeExport, UnwritablePathFailsLoudlyWithPathAndErrno) {
  // An export that cannot be written must throw naming the path and the OS
  // error — a run that "succeeds" while silently dropping its artifact is a
  // debugging trap.
  ScenarioConfig cfg;
  cfg.numNodes = 5;
  cfg.trafficNodes = 4;
  cfg.simTime = 5.0;
  cfg.numMessages = 2;
  cfg.nodeCountersPath =
      testing::TempDir() + "no_such_export_dir/nodes.csv";
  try {
    (void)runScenario(cfg);
    FAIL() << "unwritable export path not detected";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(cfg.nodeCountersPath), std::string::npos) << what;
    EXPECT_NE(what.find("No such file or directory"), std::string::npos)
        << what;
  }
}

}  // namespace
