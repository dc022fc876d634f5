// Tests for the deterministic parallel experiment engine (runner.hpp):
// the work-stealing ThreadPool contract (every index exactly once, serial
// degeneration, exception propagation, reuse) and the SweepRunner's core
// guarantee — parallel sweep results bit-identical, field for field, to the
// serial path for a mid-size GLR + epidemic grid.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace {

using glr::experiment::firstMismatch;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::runScenarioSeeds;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::seedForRun;
using glr::experiment::SweepRunner;
using glr::experiment::ThreadPool;

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

TEST(ThreadPool, DefaultsToAtLeastOneThread) {
  EXPECT_GE(ThreadPool::defaultThreads(), 1u);
  ThreadPool pool;
  EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.threadCount(), 4u);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallelFor(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadDegeneratesToSerialInOrder) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.threadCount(), 1u);
  std::vector<std::size_t> order;  // no lock: everything runs inline
  pool.parallelFor(100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, FewerTasksThanThreads) {
  ThreadPool pool{8};
  std::atomic<int> ran{0};
  pool.parallelFor(2, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
  pool.parallelFor(0, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, UnbalancedTasksAllComplete) {
  // Indices dealt to participant 0 are long; stealing must let the other
  // workers drain them. (A correctness check — timing is not asserted.)
  ThreadPool pool{4};
  std::atomic<std::uint64_t> sum{0};
  pool.parallelFor(64, [&](std::size_t i) {
    std::uint64_t local = 0;
    const std::uint64_t spin = (i % 4 == 0) ? 200000 : 100;
    for (std::uint64_t k = 0; k < spin; ++k) local += k * k + i;
    sum.fetch_add(local % 1000 + 1);
  });
  EXPECT_GE(sum.load(), 64u);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool{4};
  EXPECT_THROW(
      pool.parallelFor(100,
                       [](std::size_t i) {
                         if (i == 37) throw std::runtime_error{"cell 37"};
                       }),
      std::runtime_error);
  // The pool is reusable after a failed batch.
  std::atomic<int> ran{0};
  pool.parallelFor(100, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool{3};
  std::atomic<int> total{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallelFor(50, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 250);
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
  // runScenarioSeeds now rides the pool (GLR_BENCH_THREADS-controlled);
  // back-to-back calls must agree exactly whatever the thread count.
  const auto a = runScenarioSeeds(quickConfig(Protocol::kGlr), 2);
  const auto b = runScenarioSeeds(quickConfig(Protocol::kGlr), 2);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) expectIdentical(a[i], b[i]);
  EXPECT_TRUE(runScenarioSeeds(quickConfig(Protocol::kGlr), 0).empty());
}

}  // namespace
