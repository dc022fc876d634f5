// Tests for the resumable-sweep layer: the SweepRunner journal (skip
// completed cells, refuse foreign journals, discard torn tails), in-cell
// snapshot pickup, and the wall-clock watchdog.
//
// The contract mirrors the checkpoint differentials: a sweep interrupted at
// any point and rerun over its journal must produce results bit-identical
// to the uninterrupted sweep — and anything it cannot honor (a journal from
// a different sweep, a cell that never finishes) fails loudly, never
// silently.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace {

using glr::experiment::firstMismatch;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SweepRunner;

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + name;
}

/// A small 6-cell sweep (one config, six seeds) that runs in well under a
/// second per cell.
std::vector<ScenarioConfig> smallSweep() {
  std::vector<ScenarioConfig> cells;
  for (int s = 0; s < 6; ++s) {
    ScenarioConfig cfg;
    cfg.protocol = Protocol::kGlr;
    cfg.numNodes = 20;
    cfg.trafficNodes = 16;
    cfg.simTime = 100.0;
    cfg.numMessages = 30;
    cfg.seed = glr::experiment::seedForRun(31, s);
    cells.push_back(cfg);
  }
  return cells;
}

void expectSweepsBitIdentical(const std::vector<ScenarioResult>& a,
                              const std::vector<ScenarioResult>& b,
                              const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(firstMismatch(a[i], b[i]), "")
        << what << ": cell " << i << " diverged";
  }
}

/// Journal layout: a 32-byte header ending in the result layout
/// fingerprint, then one [u64 index][ScenarioResult] record per cell.
constexpr std::size_t kHeaderSize = 32;
constexpr std::size_t kFingerprintOffset = 24;
constexpr std::size_t kRecordSize = 8 + sizeof(ScenarioResult);

std::vector<char> readBytes(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void writeBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SweepResume, JournalSkipsCompletedCellsAndDiscardsTornTail) {
  const std::vector<ScenarioConfig> cells = smallSweep();
  const std::string journal = tmpPath("sweep_journal.bin");
  std::remove(journal.c_str());

  SweepRunner::Options opts;
  opts.threads = 2;
  opts.journalPath = journal;

  const std::vector<ScenarioResult> golden =
      SweepRunner{}.runCells(cells);  // no journal: the reference sweep

  // First pass writes the journal in full.
  SweepRunner first{opts};
  const std::vector<ScenarioResult> fresh = first.runCells(cells);
  EXPECT_EQ(first.stats().cellsResumed, 0u);
  expectSweepsBitIdentical(golden, fresh, "journaled sweep");

  // Second pass over the complete journal resumes every cell.
  SweepRunner second{opts};
  const std::vector<ScenarioResult> resumed = second.runCells(cells);
  EXPECT_EQ(second.stats().cellsResumed, cells.size());
  expectSweepsBitIdentical(golden, resumed, "fully resumed sweep");

  // Simulate a kill mid-append: keep the header, three whole records and
  // half of a fourth. The torn record must be discarded, the three whole
  // ones resumed, and the rerun must still match the golden sweep.
  std::vector<char> bytes = readBytes(journal);
  ASSERT_EQ(bytes.size(), kHeaderSize + cells.size() * kRecordSize);
  bytes.resize(kHeaderSize + 3 * kRecordSize + kRecordSize / 2);
  writeBytes(journal, bytes);

  SweepRunner third{opts};
  const std::vector<ScenarioResult> recovered = third.runCells(cells);
  EXPECT_EQ(third.stats().cellsResumed, 3u);
  expectSweepsBitIdentical(golden, recovered, "torn-tail resumed sweep");

  std::remove(journal.c_str());
}

TEST(SweepResume, JournalFromDifferentSweepRefused) {
  const std::vector<ScenarioConfig> cells = smallSweep();
  const std::string journal = tmpPath("sweep_journal_foreign.bin");
  std::remove(journal.c_str());

  SweepRunner::Options opts;
  opts.threads = 2;
  opts.journalPath = journal;
  (void)SweepRunner{opts}.runCells(cells);

  std::vector<ScenarioConfig> other = cells;
  other[0].seed += 1;  // any digested field: a different sweep
  try {
    (void)SweepRunner{opts}.runCells(other);
    FAIL() << "foreign journal not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("different sweep"),
              std::string::npos)
        << e.what();
  }
  std::remove(journal.c_str());
}

TEST(SweepResume, JournalWithDifferentResultLayoutRefused) {
  // A journal from a build whose ScenarioResult field list differs carries
  // a different layout fingerprint; its raw records must never be read.
  const std::vector<ScenarioConfig> cells = smallSweep();
  const std::string journal = tmpPath("sweep_journal_layout.bin");
  std::remove(journal.c_str());

  SweepRunner::Options opts;
  opts.threads = 2;
  opts.journalPath = journal;
  (void)SweepRunner{opts}.runCells(cells);

  std::vector<char> bytes = readBytes(journal);
  ASSERT_EQ(bytes.size(), kHeaderSize + cells.size() * kRecordSize);
  bytes[kFingerprintOffset] ^= 0x5A;
  writeBytes(journal, bytes);
  try {
    (void)SweepRunner{opts}.runCells(cells);
    FAIL() << "journal with a different result layout not detected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("result layout"), std::string::npos)
        << e.what();
  }

  // A version-1 journal predates the stamp and is refused the same way.
  bytes[kFingerprintOffset] ^= 0x5A;
  bytes[4] = 1;  // u16 version, little-endian
  bytes[5] = 0;
  writeBytes(journal, bytes);
  try {
    (void)SweepRunner{opts}.runCells(cells);
    FAIL() << "version-1 journal not refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("result layout"), std::string::npos)
        << e.what();
  }
  std::remove(journal.c_str());
}

TEST(SweepResume, CellSnapshotContinuesInterruptedCellBitIdentically) {
  // One long cell. Simulate a sweep killed mid-cell: run the wired config
  // directly so its periodic snapshot survives at the exact path the
  // runner uses, then hand the sweep to the runner — it must pick the
  // snapshot up, finish the tail, and match the uninterrupted run.
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 25;
  cfg.trafficNodes = 20;
  cfg.simTime = 400.0;
  cfg.numMessages = 80;
  cfg.seed = 17;

  const std::string journal = tmpPath("sweep_journal_snap.bin");
  const std::string cellSnapshot = journal + ".cell0.ckpt";
  std::remove(journal.c_str());
  std::remove(cellSnapshot.c_str());

  SweepRunner::Options opts;
  opts.journalPath = journal;
  opts.cellCheckpointEvery = 250.0;  // one snapshot at t=250, 150 s tail

  // The uninterrupted reference, under the same wiring the runner applies
  // (checkpointEvery shapes the event sequence; the path does not).
  ScenarioConfig wired = cfg;
  wired.checkpointEvery = opts.cellCheckpointEvery;
  wired.checkpointPath = tmpPath("sweep_snap_golden.ckpt");
  const ScenarioResult golden = runScenario(wired);
  std::remove(wired.checkpointPath.c_str());

  // "Interrupted" run: leaves its t=250 snapshot at the runner's cell path.
  wired.checkpointPath = cellSnapshot;
  (void)runScenario(wired);
  ASSERT_NE(std::fopen(cellSnapshot.c_str(), "rb"), nullptr);

  SweepRunner runner{opts};
  const std::vector<ScenarioResult> results = runner.runCells({cfg});
  EXPECT_EQ(runner.stats().cellsRestored, 1u);
  EXPECT_EQ(firstMismatch(golden, results[0]), "")
      << "snapshot-continued cell diverged";
  // The completed cell must clean its snapshot up.
  EXPECT_EQ(std::fopen(cellSnapshot.c_str(), "rb"), nullptr);

  std::remove(journal.c_str());
}

TEST(SweepResume, StaleCellSnapshotRerunsFromScratch) {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 20;
  cfg.trafficNodes = 16;
  cfg.simTime = 120.0;
  cfg.numMessages = 30;
  cfg.seed = 23;

  const std::string journal = tmpPath("sweep_journal_stale.bin");
  const std::string cellSnapshot = journal + ".cell0.ckpt";
  std::remove(journal.c_str());

  SweepRunner::Options opts;
  opts.journalPath = journal;
  opts.cellCheckpointEvery = 80.0;

  // Plant a snapshot from a DIFFERENT configuration at the cell's path.
  ScenarioConfig foreign = cfg;
  foreign.seed = 99;
  foreign.checkpointEvery = opts.cellCheckpointEvery;
  foreign.checkpointPath = cellSnapshot;
  (void)runScenario(foreign);

  ScenarioConfig wired = cfg;
  wired.checkpointEvery = opts.cellCheckpointEvery;
  wired.checkpointPath = tmpPath("sweep_stale_golden.ckpt");
  const ScenarioResult golden = runScenario(wired);
  std::remove(wired.checkpointPath.c_str());

  SweepRunner runner{opts};
  const std::vector<ScenarioResult> results = runner.runCells({cfg});
  EXPECT_EQ(runner.stats().cellsRestored, 0u);  // stale snapshot not trusted
  EXPECT_EQ(firstMismatch(golden, results[0]), "")
      << "cell with stale snapshot diverged from the fresh run";

  std::remove(journal.c_str());
}

TEST(SweepResume, WatchdogTimesOutRetriesThenFailsLoudly) {
  // A deadline that expires before the first check (every 8192 events) can
  // pass: every attempt times out, so after 1 + cellRetries attempts the
  // sweep must fail — loudly — with every abort counted.
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.numNodes = 30;
  cfg.trafficNodes = 25;
  cfg.simTime = 300.0;
  cfg.traffic.model = "poisson";
  cfg.traffic.rate = 6.0;
  cfg.seed = 41;

  SweepRunner::Options opts;
  opts.cellTimeout = 1e-6;
  opts.cellRetries = 1;
  SweepRunner runner{opts};
  try {
    (void)runner.runCells({cfg});
    FAIL() << "watchdog did not fire";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("wall deadline"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(runner.stats().cellTimeouts, 2u);  // first attempt + one retry
}

}  // namespace
