#pragma once
/// \file runner.hpp
/// Deterministic parallel experiment engine.
///
/// Every paper artifact (Tables 2-6, Figures 3-7, the ablation) is an
/// embarrassingly parallel grid of independent `(config, seed)` cells: a
/// scenario is a pure function of its config (scenario.hpp), so cells can
/// execute on any thread in any order as long as results land back in cell
/// order. `parallelFor` hands cells to threads from one shared cursor and
/// `SweepRunner` adds the sweep semantics:
///
///  * cells are enumerated up front (grid-major, seeds minor) and each
///    worker writes only `results[cellIndex]` — no shared mutable state;
///  * aggregation (stats::meanCI et al.) runs on the calling thread after
///    the threads join, over the index-ordered results, so every printed
///    `mean ± CI` is bit-identical to the serial path at any thread count;
///  * the thread count comes from `GLR_BENCH_THREADS` (default:
///    `std::thread::hardware_concurrency()`); 1 degenerates to inline
///    serial execution on the calling thread with no thread started.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"

namespace glr::experiment {

/// Runs fn(i) for every i in [0, n) on min(threads, n) participants: the
/// calling thread plus min(threads, n) - 1 threads started for this call
/// and joined before it returns. Each participant claims the next index
/// from one shared atomic cursor, so a participant stuck on a long task
/// leaves the rest to the others. One participant (threads <= 1 or n <= 1)
/// is the serial loop: inline, in index order, on the calling thread, with
/// no thread started. Once a task throws no further index is handed out;
/// the call joins every thread and rethrows the first exception.
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)>& fn);

/// `GLR_BENCH_THREADS` if set and positive, else hardware_concurrency()
/// (else 1 if even that is unknown). A value that is not a non-negative
/// integer throws (see envInt).
[[nodiscard]] unsigned defaultThreads();

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

/// Runs a (config grid) x (seeds) sweep across threads.
class SweepRunner {
 public:
  struct Options {
    /// 0: defaultThreads() (GLR_BENCH_THREADS / hardware). Whatever the
    /// request, a sweep never starts more threads than it has pending
    /// cells, so callers need no cap of their own.
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
  /// base seed), executes them across threads, and returns results grouped
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
