// Tests for the crash-safety layer: whole-scenario checkpoint/restore
// (checkpoint/scenario_checkpoint.*, checkpoint/file.*).
//
// The differentials are the contract: a run snapshotted at t and restored
// into a fresh process must finish bit-identically to the uninterrupted run
// — including with saturation traffic, fault injection, adversarial nodes,
// churn and GLR recovery all live. The byte round-trip law sharpens it to
// the snapshot bytes themselves, and the format pin holds the on-disk
// layout fixed. The error-path tests pin the reader's loud-refusal
// behavior: truncation, corruption, version skew and config mismatch must
// throw, never limp.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "checkpoint/codec.hpp"
#include "checkpoint/file.hpp"
#include "checkpoint/payload_codec.hpp"
#include "checkpoint/scenario_checkpoint.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace {

using glr::ckpt::Decoder;
using glr::ckpt::Encoder;
using glr::experiment::bitIdenticalIgnoringWall;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
}

/// Removes a snapshot path and every side file the tests below create.
void removeSnapshots(const std::string& path) {
  for (const char* suffix : {"", ".tmp", ".first", ".resumed"}) {
    std::remove((path + suffix).c_str());
  }
}

/// Runs `cfg` uninterrupted, snapshotting to cfg.checkpointPath, and
/// returns the path holding its FIRST snapshot (cfg.checkpointPath itself
/// ends up holding the last one). The writer replaces its file through
/// `<path>.tmp` and a rename, so pre-placing that tmp name as a symlink
/// routes the first write into the link's target, and the rename then
/// moves the link itself: later snapshots land in fresh files and the
/// first one survives.
std::string runKeepingFirstSnapshot(const ScenarioConfig& cfg,
                                    ScenarioResult& golden) {
  const std::string first = cfg.checkpointPath + ".first";
  removeSnapshots(cfg.checkpointPath);
  // The link target is relative to the link's own directory.
  std::filesystem::create_symlink(std::filesystem::path{first}.filename(),
                                  cfg.checkpointPath + ".tmp");
  golden = runScenario(cfg);
  return first;
}

/// Golden vs snapshot-and-restore differential. Runs `cfg` once writing
/// snapshots every T = cfg.checkpointEvery, then restores the T snapshot
/// into a fresh scenario and checks the continued run is bit-identical to
/// the uninterrupted one.
///
/// With a second snapshot (2T < simTime < 3T) it also checks the byte
/// round-trip law: the snapshot the restored run writes at 2T must equal
/// the uninterrupted run's 2T snapshot byte for byte. That catches state a
/// visit forgets even when the forgotten state never moves ScenarioResult.
void expectRestoreBitIdentical(ScenarioConfig cfg, const std::string& name) {
  const std::string path = tmpPath(name);
  cfg.checkpointPath = path;
  ScenarioResult golden;
  const std::string first = runKeepingFirstSnapshot(cfg, golden);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath = path + ".resumed";
  resumed.restoreFrom = first;
  const ScenarioResult tail = runScenario(resumed);
  EXPECT_TRUE(bitIdenticalIgnoringWall(golden, tail))
      << name << ": restored run diverged from the uninterrupted golden "
      << "(delivered " << tail.delivered << " vs " << golden.delivered
      << ", events " << tail.eventsExecuted << " vs "
      << golden.eventsExecuted << ")";

  if (cfg.simTime > 2.0 * cfg.checkpointEvery) {
    const std::vector<char> uninterrupted = slurp(path);
    const std::vector<char> restored = slurp(resumed.checkpointPath);
    ASSERT_EQ(restored.size(), uninterrupted.size())
        << name << ": 2T snapshot size differs after a restore at T";
    EXPECT_EQ(std::memcmp(restored.data(), uninterrupted.data(),
                          restored.size()),
              0)
        << name << ": 2T snapshot bytes differ after a restore at T";
  }
  removeSnapshots(path);
}

// ---------------------------------------------------------------------------
// Restore differentials, one per protocol family. checkpointEvery is chosen
// so snapshots fire at T and 2T with 2T < simTime < 3T: the restore at T
// replays a long tail with every subsystem still active, and the restored
// run's own 2T snapshot is held to the byte round-trip law.
// ---------------------------------------------------------------------------

TEST(Checkpoint, GlrFullStackRestoreBitIdentical) {
  // Everything on at once: saturating ON/OFF traffic, burst loss +
  // corruption + stalls, blackhole/greyhole/selfish/flapping adversaries,
  // churn, TTLs, custody watermark + AIMD congestion control, and the GLR
  // recovery layer the faults keep busy.
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 40;
  cfg.trafficNodes = 36;
  cfg.simTime = 400.0;
  cfg.seed = 11;
  cfg.traffic.model = "onoff";
  cfg.traffic.rate = 12.0;
  cfg.queueLimit = 40;
  cfg.storageLimit = 60;
  cfg.custodyWatermark = 45;
  cfg.congestionControl = true;
  cfg.messageTtl = 120.0;
  cfg.churn.enabled = true;
  cfg.churn.params.fraction = 0.3;
  cfg.churn.params.upMean = 120.0;
  cfg.churn.params.downMean = 20.0;
  cfg.churn.params.start = 30.0;
  cfg.faults.enabled = true;
  cfg.faults.params.start = 40.0;
  cfg.faults.params.burstRate = 0.05;
  cfg.faults.params.burstMean = 3.0;
  cfg.faults.params.lossProb = 0.5;
  cfg.faults.params.corruptProb = 0.01;
  cfg.faults.params.stallRate = 0.02;
  cfg.faults.params.stallMean = 5.0;
  cfg.faults.params.adversary.blackholeFraction = 0.08;
  cfg.faults.params.adversary.greyholeFraction = 0.08;
  cfg.faults.params.adversary.greyholeDropProb = 0.6;
  cfg.faults.params.adversary.selfishFraction = 0.08;
  cfg.faults.params.adversary.flappingFraction = 0.08;
  cfg.glrRecovery = true;
  cfg.checkpointEvery = 150.0;  // snapshots at t=150 and t=300
  expectRestoreBitIdentical(cfg, "ckpt_glr_fullstack.bin");
}

TEST(Checkpoint, GlrPaperWorkloadRestoreBitIdentical) {
  // The paper's fixed schedule: the snapshot carries every not-yet-fired
  // origination as a pending event (no traffic process to restore).
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.simTime = 400.0;
  cfg.numMessages = 200;
  cfg.seed = 7;
  cfg.checkpointEvery = 150.0;
  expectRestoreBitIdentical(cfg, "ckpt_glr_paper.bin");
}

TEST(Checkpoint, SnapshotBeforeFirstMessageRestores) {
  // Regression: a snapshot taken before traffic starts (t=4 < 10 s) holds
  // an empty latency sketch, so its metrics section is shorter than the
  // sketch's compression value. Restore once read that value as a bounded
  // count and refused the file; it must continue bit-identically.
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.simTime = 6.0;
  cfg.numMessages = 200;
  cfg.seed = 7;
  cfg.checkpointEvery = 4.0;
  expectRestoreBitIdentical(cfg, "ckpt_glr_early.bin");
}

TEST(Checkpoint, EpidemicRestoreBitIdentical) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kEpidemic;
  cfg.numNodes = 30;
  cfg.trafficNodes = 25;
  cfg.simTime = 300.0;
  cfg.seed = 5;
  cfg.traffic.model = "poisson";
  cfg.traffic.rate = 6.0;
  cfg.storageLimit = 80;
  cfg.messageTtl = 90.0;
  cfg.faults.enabled = true;
  cfg.faults.params.start = 30.0;
  cfg.faults.params.burstRate = 0.05;
  cfg.faults.params.lossProb = 0.4;
  cfg.checkpointEvery = 120.0;  // snapshots at t=120 and t=240
  expectRestoreBitIdentical(cfg, "ckpt_epidemic.bin");
}

TEST(Checkpoint, SprayAndWaitRestoreBitIdentical) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kSprayAndWait;
  cfg.numNodes = 30;
  cfg.trafficNodes = 25;
  cfg.simTime = 300.0;
  cfg.seed = 9;
  cfg.sprayBudget = 6;
  cfg.traffic.model = "hotspot";
  cfg.traffic.rate = 5.0;
  cfg.messageTtl = 80.0;
  cfg.checkpointEvery = 120.0;
  expectRestoreBitIdentical(cfg, "ckpt_spray.bin");
}

TEST(Checkpoint, DirectDeliveryRestoreBitIdentical) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kDirectDelivery;
  cfg.numNodes = 25;
  cfg.trafficNodes = 20;
  cfg.simTime = 300.0;
  cfg.seed = 3;
  cfg.traffic.model = "flashcrowd";
  cfg.traffic.rate = 4.0;
  cfg.checkpointEvery = 120.0;
  expectRestoreBitIdentical(cfg, "ckpt_direct.bin");
}

TEST(Checkpoint, CalendarQueueRestoreBitIdentical) {
  // The snapshot stores (timeBits, seq) keys, so restore must be mode-
  // agnostic; pin the calendar kernel explicitly.
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.simTime = 300.0;
  cfg.numMessages = 150;
  cfg.seed = 13;
  cfg.kernelQueue = glr::experiment::KernelQueue::kCalendar;
  cfg.checkpointEvery = 120.0;
  expectRestoreBitIdentical(cfg, "ckpt_calendar.bin");
}

// ---------------------------------------------------------------------------
// Format pin: the GLRK v1 bytes of one small snapshot per protocol family
// (plus the calendar kernel) are fixed, so existing .ckpt files and in-cell
// sweep snapshots keep restoring and snapshot sizes cannot drift silently.
// A deliberate layout change must bump kCheckpointVersion, not re-pin; a
// change in what a component holds, in an unchanged layout, re-pins.
// ---------------------------------------------------------------------------

ScenarioConfig pinnedScenario(Protocol protocol, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.numNodes = 20;
  cfg.trafficNodes = 16;
  cfg.simTime = 90.0;
  cfg.seed = seed;
  cfg.checkpointEvery = 60.0;  // one snapshot at t=60
  return cfg;
}

void expectPinnedDigest(ScenarioConfig cfg, const std::string& name,
                        std::uint64_t digest) {
  const std::string path = tmpPath(name);
  cfg.checkpointPath = path;
  (void)runScenario(cfg);
  const std::vector<char> bytes = slurp(path);
  EXPECT_EQ(glr::ckpt::fnv1a64(bytes.data(), bytes.size()), digest)
      << name << ": checkpoint bytes changed (" << bytes.size()
      << " bytes) — the GLRK v1 format is pinned";
  removeSnapshots(path);
}

TEST(CheckpointFormat, GlrSnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kGlr, 41);
  cfg.numMessages = 30;
  expectPinnedDigest(cfg, "pin_glr.bin",
                     0x5a1487e4a6d0b194ULL);
}

TEST(CheckpointFormat, EpidemicSnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kEpidemic, 42);
  cfg.traffic.model = "poisson";
  cfg.traffic.rate = 3.0;
  cfg.messageTtl = 60.0;
  expectPinnedDigest(cfg, "pin_epidemic.bin",
                     0x6bfe36bd0efc379cULL);
}

TEST(CheckpointFormat, SprayAndWaitSnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kSprayAndWait, 43);
  cfg.sprayBudget = 4;
  cfg.traffic.model = "hotspot";
  cfg.traffic.rate = 3.0;
  expectPinnedDigest(cfg, "pin_spray.bin",
                     0xa1f2594f58617063ULL);
}

TEST(CheckpointFormat, DirectDeliverySnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kDirectDelivery, 44);
  cfg.traffic.model = "flashcrowd";
  cfg.traffic.rate = 2.0;
  expectPinnedDigest(cfg, "pin_direct.bin",
                     0x7d374f5c671d1541ULL);
}

TEST(CheckpointFormat, CalendarQueueSnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kGlr, 45);
  cfg.numMessages = 30;
  cfg.kernelQueue = glr::experiment::KernelQueue::kCalendar;
  expectPinnedDigest(cfg, "pin_calendar.bin",
                     0xbf2fc381a07c3e2eULL);
}

// ---------------------------------------------------------------------------
// Error paths: the reader refuses loudly, never limps.
// ---------------------------------------------------------------------------

/// Small scenario that leaves a valid snapshot at `path`.
ScenarioConfig snapshotScenario(const std::string& path) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 20;
  cfg.trafficNodes = 16;
  cfg.simTime = 120.0;
  cfg.numMessages = 40;
  cfg.seed = 21;
  cfg.checkpointEvery = 80.0;
  cfg.checkpointPath = path;
  return cfg;
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(Checkpoint, TruncatedFileRefused) {
  const std::string path = tmpPath("ckpt_truncated.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 64u);
  bytes.resize(bytes.size() / 2);
  spit(path, bytes);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  EXPECT_THROW((void)runScenario(resumed), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptByteRefused) {
  const std::string path = tmpPath("ckpt_corrupt.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 128u);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit -> checksum fails
  spit(path, bytes);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  EXPECT_THROW((void)runScenario(resumed), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, VersionMismatchRefused) {
  const std::string path = tmpPath("ckpt_version.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  // Bump the version field (offset 4, u16 LE) and re-seal the checksum so
  // the version check itself — not the integrity check — is what fires.
  std::vector<char> bytes = slurp(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[4] = static_cast<char>(glr::ckpt::kCheckpointVersion + 1);
  const std::uint64_t sum =
      glr::ckpt::fnv1a64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  spit(path, bytes);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  try {
    (void)runScenario(resumed);
    FAIL() << "version mismatch not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("version"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, DifferentConfigRefused) {
  const std::string path = tmpPath("ckpt_digest.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  ScenarioConfig other = cfg;
  other.checkpointPath.clear();
  other.restoreFrom = path;
  other.seed = cfg.seed + 1;  // any digested field: refuse
  try {
    (void)runScenario(other);
    FAIL() << "config digest mismatch not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("different configuration"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RestoreWithTracingArmedRefused) {
  const std::string path = tmpPath("ckpt_traced.bin");
  ScenarioConfig cfg = snapshotScenario(path);
  (void)runScenario(cfg);

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  resumed.tracePath = tmpPath("ckpt_traced.trace");
  EXPECT_THROW((void)runScenario(resumed), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, CheckpointPathWithoutPeriodRefused) {
  ScenarioConfig cfg;
  cfg.checkpointPath = tmpPath("ckpt_noperiod.bin");
  cfg.checkpointEvery = 0.0;
  EXPECT_THROW((void)runScenario(cfg), std::invalid_argument);
}

TEST(Checkpoint, MissingFileRefused) {
  ScenarioConfig cfg;
  cfg.simTime = 60.0;
  cfg.numMessages = 10;
  cfg.checkpointEvery = 40.0;
  cfg.restoreFrom = tmpPath("ckpt_does_not_exist.bin");
  EXPECT_THROW((void)runScenario(cfg), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Decode-side checks of the visit vocabulary, on hand-made section bytes.
// ---------------------------------------------------------------------------

/// Runs `decode` over `e`'s bytes and expects a refusal naming `what`.
template <class Decode>
void expectDecodeRefused(const Encoder& e, Decode&& decode,
                         const std::string& what) {
  Decoder d{e.data().data(), e.data().size(), "test section"};
  try {
    decode(d);
    FAIL() << "decoder accepted bytes that should fail with: " << what;
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string{err.what()}.find(what), std::string::npos)
        << err.what();
  }
}

TEST(CheckpointCodec, UnknownPayloadTagRefused) {
  Encoder e;
  e.u8(0x7f);
  glr::net::Payload p;
  expectDecodeRefused(
      e, [&](Decoder& d) { glr::ckpt::visit(d, p); }, "unknown payload tag");
}

TEST(CheckpointCodec, BadTreeFlagRefused) {
  glr::dtn::Message m;
  Encoder e;
  glr::ckpt::visit(e, m);
  std::vector<unsigned char> bytes = e.data();
  bytes[40] = 9;  // the flag byte follows id..expiresAt (40 bytes)
  Encoder patched;
  patched.bytes(bytes.data(), bytes.size());
  expectDecodeRefused(
      patched, [&](Decoder& d) { glr::ckpt::visit(d, m); },
      "invalid tree flag");
}

TEST(CheckpointCodec, UnreachableMapOrderRefused) {
  // Keys 1 and 14 share a bucket of 13 while 2 does not, so no insertion
  // order lays a table out as [1, 2, 14] (bucket members stay contiguous).
  Encoder e;
  e.u64(3);   // size
  e.u64(13);  // bucket count
  for (const int key : {1, 2, 14}) {
    e.i32(key);
    e.i32(0);
  }
  std::unordered_map<int, int> m;
  expectDecodeRefused(
      e,
      [&](Decoder& d) {
        d.unorderedMap(m, [&](int& k, int& v) {
          d.i32(k);
          d.i32(v);
        });
      },
      "iteration order diverged");
}

TEST(CheckpointCodec, ConfigValueMismatchRefused) {
  Encoder e;
  e.expectEqual(std::uint64_t{200}, "quantile sketch compression");
  expectDecodeRefused(
      e,
      [](Decoder& d) {
        d.expectEqual(std::uint64_t{100}, "quantile sketch compression");
      },
      "quantile sketch compression mismatch (snapshot 200, live 100)");
}

}  // namespace
