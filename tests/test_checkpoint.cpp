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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "checkpoint/codec.hpp"
#include "checkpoint/event_kinds.hpp"
#include "checkpoint/file.hpp"
#include "checkpoint/payload_codec.hpp"
#include "checkpoint/scenario_checkpoint.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "mac/channel.hpp"
#include "mac/mac.hpp"
#include "net/neighbor.hpp"
#include "net/packet.hpp"
#include "net/payload.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

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

/// The kinds of the pending events a snapshot holds. Each 60-byte event
/// record is its (timeBits, seq) key, the u16 kind, then the descriptor's
/// other 42 bytes.
std::set<int> pendingKinds(const std::string& path) {
  const glr::ckpt::CheckpointFile f = glr::ckpt::CheckpointFile::read(path);
  const glr::ckpt::Section& s = f.section(glr::ckpt::kSectionEvents, path);
  Decoder d{s.bytes.data(), s.bytes.size(), path};
  std::set<int> kinds;
  unsigned char skip[42];
  for (std::uint64_t n = d.u64(); n > 0; --n) {
    d.bytes(skip, 16);
    kinds.insert(d.u16());
    d.bytes(skip, 42);
  }
  d.expectEnd();
  return kinds;
}

/// Golden vs snapshot-and-restore differential. Runs `cfg` once writing
/// snapshots every T = cfg.checkpointEvery, then restores the T snapshot
/// into a fresh scenario and checks the continued run is bit-identical to
/// the uninterrupted one. The T snapshot must hold a pending event of each
/// of `pending`, so the restore re-creates them.
///
/// With a second snapshot (2T < simTime < 3T) it also checks the byte
/// round-trip law: the snapshot the restored run writes at 2T must equal
/// the uninterrupted run's 2T snapshot byte for byte. That catches state a
/// visit forgets even when the forgotten state never moves ScenarioResult.
void expectRestoreBitIdentical(ScenarioConfig cfg, const std::string& name,
                               std::initializer_list<int> pending = {}) {
  const std::string path = tmpPath(name);
  cfg.checkpointPath = path;
  ScenarioResult golden;
  const std::string first = runKeepingFirstSnapshot(cfg, golden);
  const std::set<int> held = pendingKinds(first);
  for (const int kind : pending) {
    EXPECT_TRUE(held.count(kind) != 0)
        << name << ": the T snapshot holds no pending event of kind " << kind;
  }

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

/// Everything on at once: saturating ON/OFF traffic, burst loss +
/// corruption + stalls, blackhole/greyhole/selfish/flapping adversaries,
/// churn, TTLs, custody watermark + AIMD congestion control, and the GLR
/// recovery layer the faults keep busy.
ScenarioConfig glrFullStack() {
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
  return cfg;
}

TEST(Checkpoint, GlrFullStackRestoreBitIdentical) {
  ScenarioConfig cfg = glrFullStack();
  cfg.checkpointEvery = 150.0;  // snapshots at t=150 and t=300
  expectRestoreBitIdentical(cfg, "ckpt_glr_fullstack.bin");
}

TEST(Checkpoint, GlrMidAckExchangeRestoreBitIdentical) {
  // The full stack with burst-loss windows and stalls long enough to be
  // open at T, and T placed 5 us after a unicast DATA frame ends (found by
  // listing the pending frames of a t=149.5 snapshot): the snapshot then
  // holds the receiver's ACK reply inside its SIFS and the sender's ACK
  // timeout, which the round instants above never catch in flight. The ACK
  // arrives after the restore, so the timeout's re-armed handle must cancel
  // it.
  ScenarioConfig cfg = glrFullStack();
  cfg.faults.params.burstMean = 30.0;
  cfg.faults.params.stallRate = 0.05;
  cfg.faults.params.stallMean = 30.0;
  cfg.checkpointEvery = 149.50450384193445;
  using namespace glr::ckpt;
  expectRestoreBitIdentical(
      cfg, "ckpt_glr_midexchange.bin",
      {kMacAckReply, kMacAckTimeout, kFaultBurstEnd, kFaultStallEnd});
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
// Format pin: the GLRK v6 bytes of one small snapshot per protocol family
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
      << " bytes) — the GLRK v6 format is pinned";
  removeSnapshots(path);
}

TEST(CheckpointFormat, GlrSnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kGlr, 41);
  cfg.numMessages = 30;
  expectPinnedDigest(cfg, "pin_glr.bin",
                     0x256e60d92e71299dULL);
}

TEST(CheckpointFormat, EpidemicSnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kEpidemic, 42);
  cfg.traffic.model = "poisson";
  cfg.traffic.rate = 3.0;
  cfg.messageTtl = 60.0;
  expectPinnedDigest(cfg, "pin_epidemic.bin",
                     0x714f900cb9a2599dULL);
}

TEST(CheckpointFormat, SprayAndWaitSnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kSprayAndWait, 43);
  cfg.sprayBudget = 4;
  cfg.traffic.model = "hotspot";
  cfg.traffic.rate = 3.0;
  expectPinnedDigest(cfg, "pin_spray.bin",
                     0x0fe090fe8c1263a9ULL);
}

TEST(CheckpointFormat, DirectDeliverySnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kDirectDelivery, 44);
  cfg.traffic.model = "flashcrowd";
  cfg.traffic.rate = 2.0;
  expectPinnedDigest(cfg, "pin_direct.bin",
                     0xf38a4d80e976778dULL);
}

TEST(CheckpointFormat, CalendarQueueSnapshotBytesPinned) {
  ScenarioConfig cfg = pinnedScenario(Protocol::kGlr, 45);
  cfg.numMessages = 30;
  cfg.kernelQueue = glr::experiment::KernelQueue::kCalendar;
  expectPinnedDigest(cfg, "pin_calendar.bin",
                     0xa3c6b028ff9d73b6ULL);
}

// ---------------------------------------------------------------------------
// Config digest pin: the digest of the default config, of one that sets
// every digested knob (nested ones included) to a distinct non-default
// value, and of one that changes only what the digest skips. Checkpoints
// and sweep journals record this digest, so none of these values may move.
// ---------------------------------------------------------------------------

/// Every digested knob off its default, each to a distinct value.
ScenarioConfig everyKnobConfig() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kSprayAndWait;
  cfg.numNodes = 77;
  cfg.areaWidth = 1234.5;
  cfg.areaHeight = 321.5;
  cfg.radius = 87.5;
  cfg.speedMin = 0.25;
  cfg.speedMax = 17.5;
  cfg.pause = 2.25;
  cfg.bitRateBps = 2e6;
  cfg.queueLimit = 99;
  cfg.mobility.model = "manhattan";
  cfg.mobility.numClusters = 6;
  cfg.mobility.params.legDuration = 12.5;
  cfg.mobility.params.updateInterval = 1.75;
  cfg.mobility.params.alpha = 0.65;
  cfg.mobility.params.meanSpeed = 7.25;
  cfg.mobility.params.gridSpacing = 120.5;
  cfg.mobility.params.turnProb = 0.35;
  cfg.mobility.params.clusterStddev = 55.5;
  cfg.mobility.params.roamProb = 0.15;
  cfg.churn.enabled = true;
  cfg.churn.params.fraction = 0.45;
  cfg.churn.params.upMean = 111.0;
  cfg.churn.params.downMean = 33.0;
  cfg.churn.params.start = 4.5;
  cfg.radiusSpreadMin = 0.8;
  cfg.radiusSpreadMax = 1.3;
  cfg.simTime = 555.0;
  cfg.numMessages = 123;
  cfg.messageInterval = 1.25;
  cfg.trafficStart = 12.75;
  cfg.trafficNodes = 44;
  cfg.traffic.model = "onoff";
  cfg.traffic.rate = 6.5;
  cfg.traffic.maxMessages = 4321;
  cfg.traffic.onMean = 11.5;
  cfg.traffic.offMean = 29.5;
  cfg.traffic.hotspotFraction = 0.12;
  cfg.traffic.hotspotWeight = 0.85;
  cfg.traffic.flashStart = 0.42;
  cfg.traffic.flashDuration = 0.11;
  cfg.traffic.flashMultiplier = 7.5;
  cfg.faults.enabled = true;
  cfg.faults.params.start = 3.5;
  cfg.faults.params.burstRate = 0.07;
  cfg.faults.params.burstMean = 2.75;
  cfg.faults.params.lossProb = 0.55;
  cfg.faults.params.corruptProb = 0.015;
  cfg.faults.params.stallRate = 0.025;
  cfg.faults.params.stallMean = 5.5;
  cfg.faults.params.adversary.blackholeFraction = 0.05;
  cfg.faults.params.adversary.greyholeFraction = 0.06;
  cfg.faults.params.adversary.greyholeDropProb = 0.47;
  cfg.faults.params.adversary.selfishFraction = 0.04;
  cfg.faults.params.adversary.flappingFraction = 0.08;
  cfg.faults.params.adversary.flapUpMean = 21.5;
  cfg.faults.params.adversary.flapDownMean = 4.75;
  cfg.storageLimit = 66;
  cfg.checkInterval = 0.95;
  cfg.custody = false;
  cfg.faceRouting = false;
  cfg.copiesOverride = 3;
  cfg.locationMode = glr::core::LocationMode::kNoneKnow;
  cfg.helloInterval = 0.7;
  cfg.cacheTimeout = 6.25;
  cfg.sprayBudget = 9;
  cfg.custodyWatermark = 41;
  cfg.congestionControl = true;
  cfg.glrRecovery = true;
  cfg.glrSuspicionThreshold = 4;
  cfg.glrRecoveryAfterFailures = 5;
  cfg.glrRecoveryFanout = 7;
  cfg.glrRecoveryCooldown = 16.5;
  cfg.glrSuspicionTtl = 130.0;
  cfg.messageTtl = 95.0;
  cfg.kernelQueue = glr::experiment::KernelQueue::kCalendar;
  cfg.spatialIndex = glr::experiment::SpatialIndexMode::kTiled;
  cfg.neighborEvictAfterFactor = 2.5;
  cfg.locationEvictAfter = 45.0;
  cfg.checkpointEvery = 25.0;
  cfg.seed = 987654321;
  return cfg;
}

/// The default config with only what the digest skips changed: the host
/// settings, and the mobility params runScenario overlays per run.
ScenarioConfig skippedFieldsConfig() {
  ScenarioConfig cfg;
  cfg.tracePath = "run.trace";
  cfg.nodeCountersPath = "nodes.json";
  cfg.checkpointPath = "run.ckpt";
  cfg.restoreFrom = "old.ckpt";
  cfg.wallDeadlineSeconds = 30.0;
  cfg.mobility.params.area = {10.0, 20.0};
  cfg.mobility.params.speedMin = 1.0;
  cfg.mobility.params.speedMax = 2.0;
  cfg.mobility.params.pause = 3.0;
  cfg.mobility.params.home = {4.0, 5.0};
  return cfg;
}

TEST(CheckpointFormat, ConfigDigestPinned) {
  struct Row {
    const char* name;
    ScenarioConfig cfg;
    std::uint64_t digest;
  };
  const Row rows[] = {
      {"default", ScenarioConfig{}, 0xd71cc8386ea4d966ULL},
      {"every knob", everyKnobConfig(), 0xc19a0a38adde852bULL},
      {"skipped fields only", skippedFieldsConfig(), 0xd71cc8386ea4d966ULL},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    EXPECT_EQ(glr::ckpt::configDigest(row.cfg), row.digest)
        << std::hex << "0x" << glr::ckpt::configDigest(row.cfg);
  }
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
  const std::vector<char> good = slurp(path);
  ASSERT_GT(good.size(), 16u);

  // The previous format and the next one. Rewrite the version field
  // (offset 4, u16 LE) and re-seal the checksum so the version check
  // itself — not the integrity check — is what fires.
  for (const int version : {glr::ckpt::kCheckpointVersion - 1,
                            glr::ckpt::kCheckpointVersion + 1}) {
    SCOPED_TRACE(version);
    std::vector<char> bytes = good;
    bytes[4] = static_cast<char>(version);
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
  std::remove(resumed.tracePath.c_str());
}

/// Rewrites record `index` of `path`'s events section (the last record when
/// `index` is past the end) to carry `desc`, and, when `at` is nonzero
/// (NaN included), the fire time `at`. The rewrite keeps the record's seq
/// unless `seqAtNextSeq` sets it to the snapshot's next seq; reading and
/// writing the file re-seals its checksum.
void rewriteEventRecord(const std::string& path, std::size_t index,
                        const glr::sim::EventDesc& desc, double at,
                        bool seqAtNextSeq) {
  glr::ckpt::CheckpointFile f = glr::ckpt::CheckpointFile::read(path);
  for (glr::ckpt::Section& s : f.sections) {
    if (s.id != glr::ckpt::kSectionEvents) continue;
    constexpr std::size_t kRecordBytes = 60;  // key (16) + descriptor (44)
    const std::size_t count = (s.bytes.size() - 8) / kRecordBytes;
    ASSERT_GT(count, 0u) << path << ": snapshot holds no pending event";
    unsigned char* record =
        s.bytes.data() + 8 + kRecordBytes * std::min(index, count - 1);
    if (at != 0.0) {
      Encoder key;
      key.u64(glr::sim::Simulator::timeToBits(at));
      std::memcpy(record, key.data().data(), key.data().size());
    }
    if (seqAtNextSeq) {
      Encoder seq;
      seq.u64(f.nextSeq);
      std::memcpy(record + 8, seq.data().data(), seq.data().size());
    }
    Encoder e;
    e.u16(desc.kind);
    e.u8(desc.b0);
    e.u8(desc.b1);
    e.i32(desc.i0);
    e.i32(desc.i1);
    e.u64(desc.u0);
    e.u64(desc.u1);
    e.f64(desc.f0);
    e.f64(desc.f1);
    std::memcpy(record + 16, e.data().data(), e.data().size());
  }
  f.write(path);
}

TEST(Checkpoint, CorruptEventRecordRefusedAtRestore) {
  // One real snapshot per component set, each restored with one event
  // record rewritten: every defect must refuse while the restore routes the
  // record, naming it, and never reach the simulator. The agent-node row
  // puts its record past simTime, where it would never fire, so a check
  // deferred to fire time would let that restore succeed.
  using namespace glr::ckpt;
  // GLR under the paper schedule: no churn, faults or traffic process.
  const ScenarioConfig plain = snapshotScenario(tmpPath("ckpt_refuse.bin"));
  // Churn, stochastic ON/OFF sources and faults without an adversary.
  ScenarioConfig busy = snapshotScenario(tmpPath("ckpt_refuse_busy.bin"));
  busy.traffic.model = "onoff";
  busy.traffic.rate = 2.0;
  busy.churn.enabled = true;
  busy.churn.params.fraction = 0.25;
  busy.faults.enabled = true;
  busy.faults.params.burstRate = 0.05;
  busy.faults.params.lossProb = 0.3;
  busy.faults.params.stallRate = 0.02;
  // Spray-and-Wait without a TTL, whose agents run no expiry sweep.
  ScenarioConfig spray = snapshotScenario(tmpPath("ckpt_refuse_spray.bin"));
  spray.protocol = Protocol::kSprayAndWait;
  const ScenarioConfig* const snapshots[] = {&plain, &busy, &spray};
  for (const ScenarioConfig* cfg : snapshots) (void)runScenario(*cfg);

  constexpr std::size_t kLast = ~std::size_t{0};
  struct Row {
    const char* name;
    const ScenarioConfig* cfg;
    glr::sim::EventDesc desc;
    const char* defect;
    std::size_t index = 0;
    double at = 0.0;
    bool seqAtNextSeq = false;
  };
  // A record any GLR snapshot may hold, for the rows whose defect is the
  // record's key.
  const glr::sim::EventDesc check{.kind = kGlrPeriodicCheck, .i0 = 2};
  const Row rows[] = {
      {"unknown kind", &plain, {.kind = 999}, "unknown event kind 999"},
      {"agent start, which fires before the first snapshot",
       &plain,
       {.kind = kAgentStart, .i0 = 0},
       "agent-start event"},
      {"MAC node out of range",
       &plain,
       {.kind = kMacAckTimeout, .i0 = 20},
       "node 20 outside the population"},
      {"agent node out of range, past simTime",
       &plain,
       {.kind = kGlrPeriodicCheck, .i0 = -1},
       "node -1 outside the population",
       kLast,
       plain.simTime + 50.0},
      {"fault-stall node out of range",
       &busy,
       {.kind = kFaultStallEnd, .i0 = 20},
       "node 20 outside the population"},
      {"paper-arrival destination out of range",
       &plain,
       {.kind = kTrafficPaperArrival, .i0 = 3, .i1 = 20},
       "node 20 outside the population"},
      {"churn record without churn",
       &plain,
       {.kind = kChurnToggle},
       "churn event without churn"},
      {"churn index past the last churning node",
       &busy,
       {.kind = kChurnToggle, .u0 = 5},
       "node index 5"},
      {"fault record without faults",
       &plain,
       {.kind = kFaultBurstNext},
       "fault event without faults"},
      {"traffic record without a traffic process",
       &plain,
       {.kind = kTrafficArrival},
       "traffic event without process"},
      {"ack-retry tree flag above 3",
       &plain,
       {.kind = kGlrAckRetry, .b0 = 4, .i0 = 2},
       "bad tree flag"},
      {"custody-timer tree flag above 3",
       &plain,
       {.kind = kGlrCustodyTimer, .b0 = 4, .i0 = 2},
       "bad tree flag"},
      {"traffic source index past the last source",
       &busy,
       {.kind = kTrafficSourceToggle, .u0 = 16},
       "bad source 16"},
      {"flap record without an adversary model",
       &busy,
       {.kind = kFaultFlap, .i0 = 4},
       "no adversary model"},
      {"another protocol's agent event",
       &plain,
       {.kind = kEpidemicExchange, .i0 = 1},
       "event kind 19"},
      {"expiry sweep without a TTL",
       &spray,
       {.kind = kSprayExpiry, .i0 = 1},
       "no TTL"},
      {"time before the snapshot clock",
       &plain,
       check,
       "before the snapshot clock",
       0,
       1.0},
      {"NaN time",
       &plain,
       check,
       "not a finite time",
       0,
       std::numeric_limits<double>::quiet_NaN()},
      {"infinite time",
       &plain,
       check,
       "not a finite time",
       0,
       std::numeric_limits<double>::infinity()},
      {"seq at the snapshot's next seq",
       &plain,
       check,
       "at or past the snapshot's next seq",
       0,
       0.0,
       true},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    const std::string path = row.cfg->checkpointPath + ".rewritten";
    std::filesystem::copy_file(
        row.cfg->checkpointPath, path,
        std::filesystem::copy_options::overwrite_existing);
    rewriteEventRecord(path, row.index, row.desc, row.at, row.seqAtNextSeq);
    ScenarioConfig resumed = *row.cfg;
    resumed.checkpointPath.clear();
    resumed.restoreFrom = path;
    try {
      (void)runScenario(resumed);
      ADD_FAILURE() << "restore accepted the rewritten record";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(row.defect), std::string::npos)
          << e.what();
    }
    std::remove(path.c_str());
  }
  for (const ScenarioConfig* cfg : snapshots) {
    removeSnapshots(cfg->checkpointPath);
  }
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

/// One node's MAC on a channel of its own, outside any world.
struct LoneMac {
  glr::sim::Simulator sim;
  glr::phy::TwoRayGround model;
  glr::phy::RadioParams radio;
  glr::mac::Channel channel{sim, model,
                            glr::phy::solveThresholds(model, radio),
                            radio.txPowerW,
                            [](int) { return glr::geom::Point2{}; }};
  glr::mac::Mac mac{sim, channel, 0, glr::mac::MacParams{},
                    glr::sim::Rng{1}};
};

/// Encodes a lone, never-transmitting MAC, replaces its transmit end with
/// `end` and expects the restore to refuse it.
void expectTransmitEndRefused(double end) {
  LoneMac lone;
  glr::mac::Mac& mac = lone.mac;
  Encoder e;
  mac.visit(e);
  std::vector<unsigned char> bytes = e.data();
  // The end follows the RNG (32 bytes), the queue count (8), four flags
  // and four 8-byte fields: 76 bytes. It holds -inf (never transmitted).
  constexpr std::size_t kAt = 76;
  const auto f64Bytes = [](double v) {
    Encoder one;
    one.f64(v);
    return one.data();
  };
  const std::vector<unsigned char> never =
      f64Bytes(-std::numeric_limits<double>::infinity());
  ASSERT_TRUE(std::equal(never.begin(), never.end(), bytes.begin() + kAt));
  Decoder unpatched{bytes.data(), bytes.size(), "test section"};
  mac.visit(unpatched);  // -inf restores
  const std::vector<unsigned char> patch = f64Bytes(end);
  std::copy(patch.begin(), patch.end(), bytes.begin() + kAt);
  Encoder patched;
  patched.bytes(bytes.data(), bytes.size());
  expectDecodeRefused(
      patched, [&](Decoder& d) { mac.visit(d); },
      "transmit end is NaN or +inf");
}

TEST(CheckpointCodec, NanTransmitEndRefused) {
  expectTransmitEndRefused(std::numeric_limits<double>::quiet_NaN());
}

TEST(CheckpointCodec, InfiniteTransmitEndRefused) {
  expectTransmitEndRefused(std::numeric_limits<double>::infinity());
}

/// Encodes the hello service of node 0 in a 4-node world after it heard
/// nodes 3, 1 and 2, writes `ids` over its three table ids and expects the
/// restore to refuse them with `what`.
void expectNeighborIdsRefused(const std::vector<int>& ids,
                              const std::string& what) {
  constexpr std::size_t kNodes = 4;
  LoneMac lone;
  struct AtOrigin final : glr::net::NeighborService::Owner {
    glr::geom::Point2 helloPosition() override { return {}; }
  } owner;
  glr::net::NeighborService service{lone.sim, lone.mac, 0, owner,
                                    glr::net::NeighborService::Params{},
                                    glr::sim::Rng{1}};
  for (const int id : {3, 1, 2}) {
    glr::net::HelloPayload payload;
    payload.id = id;
    glr::net::Packet hello;
    hello.kind = glr::net::kHelloKind;
    hello.payload = glr::net::Payload::of(payload);
    ASSERT_TRUE(service.handlePacket(hello, id));
  }
  Encoder e;
  service.visit(e, kNodes);
  std::vector<unsigned char> bytes = e.data();
  // The table follows the RNG (32 bytes) and its count (8); each entry is
  // its id, position, time and an empty list's count: 36 bytes.
  constexpr std::size_t kFirstId = 40;
  constexpr std::size_t kEntry = 36;
  ASSERT_EQ(bytes.size(), kFirstId + 3 * kEntry + 24);
  Decoder unpatched{bytes.data(), bytes.size(), "test section"};
  service.visit(unpatched, kNodes);  // ids 1, 2, 3 restore
  ASSERT_EQ(ids.size(), 3u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Encoder id;
    id.i32(ids[i]);
    std::copy(id.data().begin(), id.data().end(),
              bytes.begin() + static_cast<std::ptrdiff_t>(kFirstId +
                                                          i * kEntry));
  }
  Encoder patched;
  patched.bytes(bytes.data(), bytes.size());
  expectDecodeRefused(
      patched, [&](Decoder& d) { service.visit(d, kNodes); }, what);
}

TEST(CheckpointCodec, DuplicateNeighborIdRefused) {
  expectNeighborIdsRefused({1, 2, 2}, "neighbor id 2 does not ascend from 2");
}

TEST(CheckpointCodec, DescendingNeighborIdsRefused) {
  expectNeighborIdsRefused({1, 3, 2}, "neighbor id 2 does not ascend from 3");
}

TEST(CheckpointCodec, OutOfRangeNeighborIdRefused) {
  expectNeighborIdsRefused({1, 2, 4}, "neighbor id 4 outside [0, 4)");
  expectNeighborIdsRefused({-1, 2, 3}, "neighbor id -1 outside [0, 4)");
  // An id this large would size knowledge()'s id table to 2^31 slots.
  expectNeighborIdsRefused({1, 2, std::numeric_limits<std::int32_t>::max()},
                           "neighbor id 2147483647 outside [0, 4)");
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
