// Tests for the deterministic parallel experiment engine (runner.hpp):
// the parallelFor contract (every index exactly once, inline serial
// degeneration, min(threads, n) participants at once, a throw stopping the
// cursor and propagating) and the SweepRunner's core guarantee — parallel
// sweep results bit-identical, field for field, to the serial path for a
// mid-size GLR + epidemic grid.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace {

using glr::experiment::defaultThreads;
using glr::experiment::firstMismatch;
using glr::experiment::parallelFor;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::runScenarioSeeds;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::seedForRun;
using glr::experiment::SweepRunner;

ScenarioConfig quickConfig(Protocol p) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.numMessages = 30;
  cfg.simTime = 180.0;
  cfg.radius = 150.0;
  cfg.seed = 42;
  return cfg;
}

SweepRunner makeRunner(unsigned threads) {
  SweepRunner::Options opts;
  opts.threads = threads;
  return SweepRunner{opts};
}

// Full-field comparison over every field except wallSeconds (host timing,
// nondeterministic even serially); a failure names the first field that
// differs.
void expectIdentical(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(firstMismatch(a, b), "");
}

TEST(ParallelFor, DefaultsToAtLeastOneThread) {
  EXPECT_GE(defaultThreads(), 1u);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  parallelFor(kN, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, OneThreadRunsInlineInOrderOnTheCallingThread) {
  for (const unsigned threads : {0u, 1u}) {
    SCOPED_TRACE(testing::Message() << threads << " thread(s)");
    std::vector<std::size_t> order;  // no lock: everything runs inline
    std::vector<std::thread::id> ranOn;
    parallelFor(100, threads, [&](std::size_t i) {
      order.push_back(i);
      ranOn.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
    for (const std::thread::id id : ranOn) {
      EXPECT_EQ(id, std::this_thread::get_id());
    }
  }
}

TEST(ParallelFor, NeverMoreParticipantsThanIndices) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::vector<int> hits(2, 0);
  parallelFor(2, 8, [&](std::size_t i) {
    std::lock_guard lock{mu};
    ++hits[i];
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(hits, (std::vector<int>{1, 1}));
  EXPECT_LE(ids.size(), 2u);

  // One index with many threads requested is the inline serial loop.
  std::thread::id ranOn;
  parallelFor(1, 8, [&](std::size_t) { ranOn = std::this_thread::get_id(); });
  EXPECT_EQ(ranOn, std::this_thread::get_id());

  int calls = 0;
  parallelFor(0, 8, [&](std::size_t) { ++calls; });
  parallelFor(0, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, UnbalancedTasksAllComplete) {
  // Every fourth index is long; the shared cursor lets the other threads
  // take the short ones meanwhile. (A correctness check; timing is not
  // asserted.)
  std::vector<std::atomic<int>> hits(64);
  std::atomic<std::uint64_t> sink{0};  // keeps the spin loops alive
  parallelFor(64, 4, [&](std::size_t i) {
    std::uint64_t local = 0;
    const std::uint64_t spin = (i % 4 == 0) ? 200000 : 100;
    for (std::uint64_t k = 0; k < spin; ++k) local += k * k + i;
    sink.fetch_add(local);
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, RunsMinOfThreadsAndIndicesAtOnce) {
  // Each task waits, up to a deadline, until all four have started: only
  // four participants running at once get every task past the wait.
  constexpr std::size_t kN = 4;
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> sawAll{0};
  parallelFor(kN, 8, [&](std::size_t) {
    started.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < kN && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    if (started.load() == kN) sawAll.fetch_add(1);
  });
  EXPECT_EQ(sawAll.load(), kN);
}

TEST(ParallelFor, ThrowStopsTheCursorAndJoinsEveryThread) {
  // Every task throws, and a participant's throw stops the cursor before
  // its next claim, so each of the four participants runs at most one.
  std::atomic<int> ran{0};
  std::atomic<int> inFlight{0};
  EXPECT_THROW(parallelFor(100, 4,
                           [&](std::size_t i) {
                             inFlight.fetch_add(1);
                             ran.fetch_add(1);
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(1));
                             inFlight.fetch_sub(1);
                             throw std::runtime_error{std::to_string(i)};
                           }),
               std::runtime_error);
  EXPECT_EQ(inFlight.load(), 0);  // no task still running after the call
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 4);
}

TEST(ParallelFor, OneThreadStopsAtTheFirstThrow) {
  std::vector<std::size_t> ran;
  try {
    parallelFor(100, 1, [&](std::size_t i) {
      ran.push_back(i);
      if (i == 37 || i == 50) throw std::runtime_error{std::to_string(i)};
    });
    ADD_FAILURE() << "no exception propagated";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "37");
  }
  ASSERT_EQ(ran.size(), 38u);
  EXPECT_EQ(ran.back(), 37u);
}

TEST(ResultComparator, NamesEachDifferingFieldAndIgnoresWallTime) {
  const ScenarioResult base;
  glr::experiment::forEachResultField([&](const char* name, auto member) {
    ScenarioResult changed = base;
    changed.*member += 1;
    EXPECT_EQ(firstMismatch(base, changed), name);
  });
  ScenarioResult timed = base;
  timed.wallSeconds = 1.0;
  EXPECT_EQ(firstMismatch(base, timed), "");
}

TEST(SweepRunner, SeedScheduleMatchesHistoricalSerialLoop) {
  EXPECT_EQ(seedForRun(1, 0), 1u);
  EXPECT_EQ(seedForRun(1, 3), 1u + 3u * 1009u);
  EXPECT_EQ(seedForRun(42, 1), 42u + 1009u);
}

TEST(SweepRunner, ParallelBitIdenticalToSerialForGlrAndEpidemicGrid) {
  // The third cell is Table 3's sparse shape: 50 m, multi-copy, no custody.
  ScenarioConfig sparseNoCustody = quickConfig(Protocol::kGlr);
  sparseNoCustody.radius = 50.0;
  sparseNoCustody.custody = false;
  const std::vector<ScenarioConfig> grid = {quickConfig(Protocol::kGlr),
                                            quickConfig(Protocol::kEpidemic),
                                            sparseNoCustody};
  constexpr int kRuns = 3;

  SweepRunner serial = makeRunner(1);
  SweepRunner parallel = makeRunner(4);
  const auto s = serial.run(grid, kRuns);
  const auto p = parallel.run(grid, kRuns);

  ASSERT_EQ(s.size(), grid.size());
  ASSERT_EQ(p.size(), grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    ASSERT_EQ(s[g].size(), static_cast<std::size_t>(kRuns));
    ASSERT_EQ(p[g].size(), static_cast<std::size_t>(kRuns));
    for (int r = 0; r < kRuns; ++r) {
      SCOPED_TRACE(testing::Message()
                   << "config " << g << " replicate " << r);
      expectIdentical(s[g][static_cast<std::size_t>(r)],
                      p[g][static_cast<std::size_t>(r)]);
    }
  }

  // And both match a hand-rolled serial loop with the historical seed
  // schedule — the layout contract runScenarioSeeds has always had.
  ScenarioConfig cfg = grid[0];
  for (int r = 0; r < kRuns; ++r) {
    cfg.seed = seedForRun(grid[0].seed, r);
    SCOPED_TRACE(testing::Message() << "legacy replicate " << r);
    expectIdentical(runScenario(cfg), p[0][static_cast<std::size_t>(r)]);
  }
}

TEST(SweepRunner, RunsFewerThanThreads) {
  SweepRunner wide = makeRunner(8);
  SweepRunner narrow = makeRunner(1);
  const std::vector<ScenarioConfig> grid = {quickConfig(Protocol::kGlr)};
  const auto w = wide.run(grid, 2);
  const auto n = narrow.run(grid, 2);
  ASSERT_EQ(w.front().size(), 2u);
  for (std::size_t r = 0; r < 2; ++r) {
    expectIdentical(w.front()[r], n.front()[r]);
  }
}

TEST(SweepRunner, ThrowingScenarioPropagatesAndRunnerSurvives) {
  ScenarioConfig bad;
  bad.numNodes = 1;  // runScenario: bad node counts
  SweepRunner runner = makeRunner(4);
  EXPECT_THROW((void)runner.run({bad}, 3), std::invalid_argument);
  // Same runner still executes a good sweep afterwards.
  const auto ok = runner.run({quickConfig(Protocol::kGlr)}, 1);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok.front().front().created, 30u);
}

TEST(SweepRunner, RunCellsPreservesCellOrder) {
  ScenarioConfig a = quickConfig(Protocol::kGlr);
  ScenarioConfig b = quickConfig(Protocol::kGlr);
  b.seed = 1234;
  SweepRunner runner = makeRunner(2);
  const auto rs = runner.runCells({a, b});
  ASSERT_EQ(rs.size(), 2u);
  expectIdentical(rs[0], runScenario(a));
  expectIdentical(rs[1], runScenario(b));
}

TEST(SweepRunner, RunScenarioSeedsStillDeterministic) {
  // runScenarioSeeds runs on SweepRunner (GLR_BENCH_THREADS-controlled);
  // back-to-back calls must agree exactly whatever the thread count.
  const auto a = runScenarioSeeds(quickConfig(Protocol::kGlr), 2);
  const auto b = runScenarioSeeds(quickConfig(Protocol::kGlr), 2);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) expectIdentical(a[i], b[i]);
  EXPECT_TRUE(runScenarioSeeds(quickConfig(Protocol::kGlr), 0).empty());
}

}  // namespace
