#pragma once
/// \file runner.hpp
/// Deterministic parallel experiment engine.
///
/// Every paper artifact (Tables 2-6, Figures 3-7, the ablation) is an
/// embarrassingly parallel grid of independent `(config, seed)` cells: a
/// scenario is a pure function of its config (scenario.hpp), so cells can
/// execute on any thread in any order as long as results land back in cell
/// order. `ThreadPool` provides the work-stealing execution substrate and
/// `SweepRunner` the sweep semantics:
///
///  * cells are enumerated up front (grid-major, seeds minor) and each
///    worker writes only `results[cellIndex]` — no shared mutable state;
///  * aggregation (stats::meanCI et al.) runs on the calling thread after
///    the pool joins, over the index-ordered results, so every printed
///    `mean ± CI` is bit-identical to the serial path at any thread count;
///  * the thread count comes from `GLR_BENCH_THREADS` (default:
///    `std::thread::hardware_concurrency()`); 1 degenerates to inline
///    serial execution on the calling thread with no pool threads at all.

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "experiment/scenario.hpp"

namespace glr::experiment {

/// Work-stealing thread pool for batches of independent index tasks.
///
/// Participants are the calling thread plus `threads - 1` persistent
/// workers. `parallelFor(n, fn)` deals indices [0, n) round-robin into
/// per-participant deques; each participant drains its own deque LIFO and,
/// when empty, steals FIFO from the others — so a participant stuck on one
/// long cell sheds the rest of its share to idle threads. The call blocks
/// until every index ran and rethrows the first task exception after the
/// batch drains (remaining tasks are skipped once a task has thrown).
class ThreadPool {
 public:
  /// `threads == 0` picks defaultThreads(). The pool spawns `threads - 1`
  /// OS threads; a 1-thread pool spawns none and parallelFor runs inline,
  /// in index order — exactly the serial loop.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total participants (workers + the calling thread).
  [[nodiscard]] unsigned threadCount() const { return threads_; }

  /// Runs fn(i) for every i in [0, n) across the pool. Blocking barrier;
  /// safe to call repeatedly, not reentrant and not thread-safe itself
  /// (one batch at a time, issued from the owning thread).
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// `GLR_BENCH_THREADS` if set and positive, else hardware_concurrency()
  /// (else 1 if even that is unknown).
  [[nodiscard]] static unsigned defaultThreads();

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::size_t> tasks;
  };

  void workerLoop(unsigned participant);
  void runBatch(unsigned participant);
  /// Pops the next index for `participant` (own deque back, then steal from
  /// the fronts of the others). Returns false when every deque is empty.
  bool popTask(unsigned participant, std::size_t& index);

  unsigned threads_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_;   // workers wait for a new batch
  std::condition_variable done_;   // owner waits for remaining_ == 0
  std::uint64_t batchGeneration_ = 0;
  bool stopping_ = false;

  const std::function<void(std::size_t)>* batchFn_ = nullptr;
  std::size_t remaining_ = 0;      // tasks not yet finished (under mu_)
  std::exception_ptr firstError_;  // first task exception (under mu_)
  bool aborted_ = false;           // set once a task threw (under mu_)
};

/// The seed used for replicate `i` of a config whose base seed is `base`.
/// (Kept identical to the historical serial runScenarioSeeds schedule so
/// all golden numbers survive the parallel engine.)
[[nodiscard]] constexpr std::uint64_t seedForRun(std::uint64_t base, int i) {
  return base + static_cast<std::uint64_t>(i) * 1009;
}

/// True when every field of `a` and `b` compares exactly equal except
/// `wallSeconds` (host timing — nondeterministic even on the serial path),
/// i.e. firstMismatch(a, b) is empty. This is the parallel engine's
/// regression contract: a sweep must satisfy it cell-for-cell against the
/// serial run at any thread count.
[[nodiscard]] bool bitIdenticalIgnoringWall(const ScenarioResult& a,
                                            const ScenarioResult& b);

/// Runs a (config grid) x (seeds) sweep across a thread pool.
class SweepRunner {
 public:
  struct Options {
    /// 0: ThreadPool::defaultThreads() (GLR_BENCH_THREADS / hardware).
    /// Whatever the request, a sweep never spawns more workers than it has
    /// cells — the pool is sized per run, so callers need no cap of their
    /// own.
    unsigned threads = 0;
    /// Print cell progress + ETA to stderr as workers finish cells.
    bool progress = false;
    /// Tag for progress lines, e.g. "tab3".
    const char* label = "sweep";

    /// Crash safety. Non-empty: runCells appends each finished cell's
    /// result to this journal file (one fflushed record per cell), and a
    /// rerun of the SAME sweep over the same journal skips the cells it
    /// already holds — a killed sweep resumes instead of restarting. The
    /// journal header carries a digest over every cell's config; pointing
    /// it at a different sweep throws rather than mixing results. A record
    /// torn by the kill (partial tail) is discarded, never misread.
    std::string journalPath;
    /// With journalPath: also snapshot each in-flight cell's simulation
    /// state every this many sim-seconds (to journalPath + ".cell<i>.ckpt",
    /// removed when the cell completes), so a resumed sweep restarts
    /// interrupted cells mid-run — bit-identically — instead of from zero.
    /// 0 disables in-cell snapshots (interrupted cells rerun whole).
    double cellCheckpointEvery = 0.0;
    /// Watchdog: a cell exceeding this many wall-clock seconds is aborted
    /// (counted in Stats::cellTimeouts), retried with the same seed up to
    /// cellRetries more times, then fails the sweep loudly. 0 disables.
    double cellTimeout = 0.0;
    /// Extra same-seed attempts after a cell's first wall-clock timeout.
    int cellRetries = 1;
  };

  /// Crash-safety accounting for the most recent run()/runCells() call.
  struct Stats {
    std::size_t cellsResumed = 0;   // completed results taken from journal
    std::size_t cellsRestored = 0;  // cells continued from in-cell snapshots
    std::size_t cellTimeouts = 0;   // watchdog aborts (incl. retried ones)
  };

  SweepRunner();  // default Options
  explicit SweepRunner(Options opts);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Enumerates `grid x runs` cells (seedForRun applied to each config's
  /// base seed), executes them across the pool, and returns results grouped
  /// per config in grid order with seeds in replicate order — the exact
  /// layout of calling runScenarioSeeds(grid[i], runs) for each i in turn.
  [[nodiscard]] std::vector<std::vector<ScenarioResult>> run(
      const std::vector<ScenarioConfig>& grid, int runs);

  /// Flat variant: executes arbitrary pre-built cells (each config's seed
  /// already substituted); results in cell order.
  [[nodiscard]] std::vector<ScenarioResult> runCells(
      const std::vector<ScenarioConfig>& cells);

 private:
  Options opts_;
  Stats stats_;
};

}  // namespace glr::experiment
