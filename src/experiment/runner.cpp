#include "experiment/runner.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "checkpoint/codec.hpp"
#include "checkpoint/file.hpp"
#include "checkpoint/scenario_checkpoint.hpp"
#include "experiment/tables.hpp"
#include "sim/simulator.hpp"

namespace glr::experiment {

// Workers hand results back by writing results[cellIndex]; that is only
// race-free-by-construction because a ScenarioResult is plain data.
static_assert(std::is_trivially_copyable_v<ScenarioResult>,
              "ScenarioResult must stay plain data: sweep workers write "
              "disjoint vector slots concurrently");

unsigned ThreadPool::defaultThreads() {
  const int env = envInt("GLR_BENCH_THREADS", 0);
  if (env > 0) return static_cast<unsigned>(env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1u;
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads > 0 ? threads : defaultThreads()) {
  queues_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(threads_ - 1);
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock{mu_};
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::workerLoop(unsigned participant) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock lock{mu_};
      wake_.wait(lock, [&] { return stopping_ || batchGeneration_ != seen; });
      if (stopping_) return;
      seen = batchGeneration_;
    }
    runBatch(participant);
  }
}

bool ThreadPool::popTask(unsigned participant, std::size_t& index) {
  {
    Queue& own = *queues_[participant];
    std::lock_guard lock{own.mu};
    if (!own.tasks.empty()) {
      index = own.tasks.back();  // LIFO on the owner's deque
      own.tasks.pop_back();
      return true;
    }
  }
  for (unsigned off = 1; off < threads_; ++off) {
    Queue& victim = *queues_[(participant + off) % threads_];
    std::lock_guard lock{victim.mu};
    if (!victim.tasks.empty()) {
      index = victim.tasks.front();  // FIFO steal from the far end
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::runBatch(unsigned participant) {
  std::size_t index = 0;
  while (popTask(participant, index)) {
    bool skip;
    {
      std::lock_guard lock{mu_};
      skip = aborted_;
    }
    if (!skip) {
      try {
        (*batchFn_)(index);
      } catch (...) {
        std::lock_guard lock{mu_};
        if (!firstError_) firstError_ = std::current_exception();
        aborted_ = true;  // drain the rest without executing
      }
    }
    std::lock_guard lock{mu_};
    if (--remaining_ == 0) done_.notify_all();
  }
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_ == 1) {
    // Degenerate pool: the serial loop, in index order, on this thread.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  {
    std::lock_guard lock{mu_};
    for (std::size_t i = 0; i < n; ++i) {
      Queue& q = *queues_[i % threads_];
      std::lock_guard qlock{q.mu};
      q.tasks.push_back(i);
    }
    batchFn_ = &fn;
    remaining_ = n;
    firstError_ = nullptr;
    aborted_ = false;
    ++batchGeneration_;
  }
  wake_.notify_all();

  runBatch(0);  // the calling thread is participant 0

  std::exception_ptr error;
  {
    std::unique_lock lock{mu_};
    done_.wait(lock, [&] { return remaining_ == 0; });
    batchFn_ = nullptr;
    error = std::exchange(firstError_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

bool bitIdenticalIgnoringWall(const ScenarioResult& a,
                              const ScenarioResult& b) {
  return firstMismatch(a, b).empty();
}

namespace {

// Sweep journal: [u32 magic "GLRJ"] [u16 version] [u16 flags=0]
// [u64 cellCount] [u64 sweepDigest] [u64 result layout fingerprint], then
// per finished cell one record of [u64 cellIndex] [raw ScenarioResult
// bytes]. Records are fflushed as they land, so a killed sweep loses at
// most the record being written — and a torn tail is detected by length
// and truncated away on resume. The result payload is the host's in-memory
// layout (trivially copyable, asserted above): the journal is a
// same-machine crash-recovery artifact, not an interchange format, and the
// fingerprint refuses one written by a build with a different field list.
constexpr std::uint32_t kJournalMagic = 0x4A524C47;  // "GLRJ"
constexpr std::uint16_t kJournalVersion = 2;
constexpr std::size_t kJournalHeaderSize = 4 + 2 + 2 + 8 + 8 + 8;
constexpr std::size_t kJournalRecordSize = 8 + sizeof(ScenarioResult);

/// FNV-1a over the result field list's declarations ("type name;" in
/// order, wallSeconds last): a change to any ScenarioResult field's name,
/// type or position changes it.
std::uint64_t resultLayoutFingerprint() {
#define GLR_LAYOUT_FIELD(type, name) #type " " #name ";"
#define GLR_LAYOUT_COUNTER(field, name) GLR_LAYOUT_FIELD(std::uint64_t, name)
  static constexpr char kLayout[] =
      GLR_SCENARIO_RESULT_FIELDS(GLR_LAYOUT_FIELD, GLR_LAYOUT_COUNTER)
          GLR_LAYOUT_FIELD(double, wallSeconds);
#undef GLR_LAYOUT_FIELD
#undef GLR_LAYOUT_COUNTER
  return ckpt::fnv1a64(kLayout, sizeof kLayout - 1);
}

/// Chained FNV over every cell's config digest: two sweeps share a journal
/// only if they run the same cells in the same order.
std::uint64_t sweepDigest(const std::vector<ScenarioConfig>& cells) {
  std::uint64_t h = ckpt::fnv1a64(nullptr, 0);
  for (const ScenarioConfig& cell : cells) {
    const std::uint64_t d = ckpt::configDigest(cell);
    h = ckpt::fnv1a64(&d, sizeof d, h);
  }
  return h;
}

[[noreturn]] void journalFail(const std::string& path,
                              const std::string& what) {
  throw std::runtime_error{"sweep journal " + path + ": " + what};
}

/// Loads completed-cell results from an existing journal into `results`,
/// marking them in `done`. Returns the number of distinct cells recovered
/// (0 when the file does not exist). A journal written by a different sweep
/// is refused loudly; a torn trailing record is truncated away so appends
/// restart on a record boundary.
std::size_t loadJournal(const std::string& path, std::uint64_t digest,
                        std::vector<ScenarioResult>& results,
                        std::vector<char>& done) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;  // no journal yet: fresh sweep

  unsigned char header[kJournalHeaderSize];
  if (std::fread(header, 1, sizeof header, f) != sizeof header) {
    std::fclose(f);
    journalFail(path, "truncated header");
  }
  ckpt::Decoder d{header, sizeof header, path + " header"};
  if (d.u32() != kJournalMagic) {
    std::fclose(f);
    journalFail(path, "bad magic (not a sweep journal)");
  }
  const std::uint16_t version = d.u16();
  if (version != kJournalVersion) {
    std::fclose(f);
    journalFail(path, "unsupported version " + std::to_string(version) +
                          ": without this build's v2 result layout stamp "
                          "its records cannot be trusted to match the "
                          "result layout — refusing to read them");
  }
  d.u16();  // flags
  const std::uint64_t cellCount = d.u64();
  const std::uint64_t theirDigest = d.u64();
  const std::uint64_t theirLayout = d.u64();
  if (theirLayout != resultLayoutFingerprint()) {
    std::fclose(f);
    journalFail(path, "result layout fingerprint " +
                          std::to_string(theirLayout) + " differs from this "
                          "build's " +
                          std::to_string(resultLayoutFingerprint()) +
                          " (the ScenarioResult field list changed) — "
                          "refusing to misread its records");
  }
  if (cellCount != results.size() || theirDigest != digest) {
    std::fclose(f);
    journalFail(path,
                "written by a different sweep (" +
                    std::to_string(cellCount) + " cells, digest " +
                    std::to_string(theirDigest) + "; this sweep has " +
                    std::to_string(results.size()) + " cells, digest " +
                    std::to_string(digest) + ") — refusing to mix results");
  }

  std::size_t resumed = 0;
  std::size_t goodBytes = kJournalHeaderSize;
  unsigned char record[kJournalRecordSize];
  for (;;) {
    const std::size_t got = std::fread(record, 1, sizeof record, f);
    if (got != sizeof record) break;  // torn tail (or clean EOF at got==0)
    std::uint64_t index = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      index |= static_cast<std::uint64_t>(record[b]) << (8 * b);
    }
    if (index >= results.size()) {
      std::fclose(f);
      journalFail(path, "record holds cell index " + std::to_string(index) +
                            " out of range");
    }
    std::memcpy(&results[index], record + 8, sizeof(ScenarioResult));
    if (!done[index]) ++resumed;
    done[index] = 1;
    goodBytes += sizeof record;
  }
  std::fclose(f);
  // Drop a torn tail so the resumed run appends on a record boundary.
  if (::truncate(path.c_str(), static_cast<off_t>(goodBytes)) != 0) {
    journalFail(path, "cannot truncate torn tail: " +
                          std::string{std::strerror(errno)});
  }
  return resumed;
}

/// Opens the journal for appending, writing the header first on a fresh
/// file. Never returns null: every failure throws with path + errno.
std::FILE* openJournal(const std::string& path, std::uint64_t digest,
                       std::size_t cellCount, bool fresh) {
  std::FILE* f = std::fopen(path.c_str(), fresh ? "wb" : "ab");
  if (!f) {
    journalFail(path, "cannot open for writing: " +
                          std::string{std::strerror(errno)});
  }
  if (fresh) {
    ckpt::Encoder e;
    e.u32(kJournalMagic);
    e.u16(kJournalVersion);
    e.u16(0);
    e.u64(cellCount);
    e.u64(digest);
    e.u64(resultLayoutFingerprint());
    if (std::fwrite(e.data().data(), 1, e.data().size(), f) !=
            e.data().size() ||
        std::fflush(f) != 0) {
      std::fclose(f);
      journalFail(path, "cannot write header: " +
                            std::string{std::strerror(errno)});
    }
  }
  return f;
}

void appendJournalRecord(std::FILE* f, const std::string& path,
                         std::size_t index, const ScenarioResult& r) {
  unsigned char record[kJournalRecordSize];
  for (std::size_t b = 0; b < 8; ++b) {
    record[b] =
        static_cast<unsigned char>(static_cast<std::uint64_t>(index) >> (8 * b));
  }
  std::memcpy(record + 8, &r, sizeof r);
  if (std::fwrite(record, 1, sizeof record, f) != sizeof record ||
      std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
    journalFail(path, "cannot append record: " +
                          std::string{std::strerror(errno)});
  }
}

}  // namespace

SweepRunner::SweepRunner() : SweepRunner(Options{}) {}

SweepRunner::SweepRunner(Options opts) : opts_(std::move(opts)) {}

std::vector<ScenarioResult> SweepRunner::runCells(
    const std::vector<ScenarioConfig>& cells) {
  stats_ = Stats{};
  std::vector<ScenarioResult> results(cells.size());
  if (cells.empty()) return results;

  // The per-cell config actually executed: the caller's cell plus this
  // runner's crash-safety wiring. Built identically on fresh and resumed
  // sweeps, so the journal digest and the snapshot digests line up.
  const bool snapshotCells =
      !opts_.journalPath.empty() && opts_.cellCheckpointEvery > 0.0;
  const auto cellConfig = [&](std::size_t i) {
    ScenarioConfig cfg = cells[i];
    if (snapshotCells) {
      cfg.checkpointPath =
          opts_.journalPath + ".cell" + std::to_string(i) + ".ckpt";
      cfg.checkpointEvery = opts_.cellCheckpointEvery;
    }
    if (opts_.cellTimeout > 0.0) cfg.wallDeadlineSeconds = opts_.cellTimeout;
    return cfg;
  };

  // Resume: recover finished cells from the journal, then open it for
  // appends. The digest is over the wired configs (checkpointEvery shapes
  // the event sequence, so a sweep rerun with a different snapshot cadence
  // is a different sweep).
  std::vector<char> done(cells.size(), 0);
  std::FILE* journal = nullptr;
  std::mutex journalMu;
  if (!opts_.journalPath.empty()) {
    std::vector<ScenarioConfig> wired;
    wired.reserve(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      wired.push_back(cellConfig(i));
    }
    const std::uint64_t digest = sweepDigest(wired);
    stats_.cellsResumed =
        loadJournal(opts_.journalPath, digest, results, done);
    journal = openJournal(opts_.journalPath, digest, cells.size(),
                          stats_.cellsResumed == 0);
    if (opts_.progress && stats_.cellsResumed > 0) {
      std::fprintf(stderr, "[%s] journal %s: resuming with %zu/%zu cells done\n",
                   opts_.label, opts_.journalPath.c_str(),
                   stats_.cellsResumed, cells.size());
    }
  }

  std::vector<std::size_t> pending;
  pending.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!done[i]) pending.push_back(i);
  }
  if (pending.empty()) {
    if (journal) std::fclose(journal);
    return results;
  }

  std::mutex statsMu;

  // One cell, with snapshot pickup and the wall-clock watchdog. A usable
  // in-cell snapshot (present, intact, same config digest) continues the
  // interrupted run mid-flight; anything less reruns the cell from zero —
  // stale or torn snapshots are reported, never trusted. A watchdog abort
  // is retried with the SAME seed (picking up whatever snapshot the aborted
  // attempt left behind); retries exhausted is a loud sweep failure, never
  // a silently missing cell.
  const auto runCell = [&](std::size_t i) {
    const ScenarioConfig cfg = cellConfig(i);
    const int attempts = 1 + std::max(0, opts_.cellRetries);
    for (int attempt = 0;; ++attempt) {
      ScenarioConfig run = cfg;
      if (snapshotCells) {
        try {
          const ckpt::CheckpointFile snap =
              ckpt::CheckpointFile::read(cfg.checkpointPath);
          if (snap.configDigest != ckpt::configDigest(cfg)) {
            std::fprintf(stderr,
                         "[%s] cell %zu: snapshot %s is from a different "
                         "configuration; rerunning from scratch\n",
                         opts_.label, i, cfg.checkpointPath.c_str());
          } else {
            run.restoreFrom = cfg.checkpointPath;
            std::lock_guard lock{statsMu};
            ++stats_.cellsRestored;
          }
        } catch (const std::exception& e) {
          // Missing file (fresh cell) or unreadable snapshot: run whole.
          // Only an existing-but-broken file deserves a notice.
          if (std::FILE* probe = std::fopen(cfg.checkpointPath.c_str(), "rb")) {
            std::fclose(probe);
            std::fprintf(stderr,
                         "[%s] cell %zu: unusable snapshot (%s); rerunning "
                         "from scratch\n",
                         opts_.label, i, e.what());
          }
        }
      }
      try {
        results[i] = runScenario(run);
        if (snapshotCells) std::remove(cfg.checkpointPath.c_str());
        return;
      } catch (const sim::WallClockTimeout&) {
        {
          std::lock_guard lock{statsMu};
          ++stats_.cellTimeouts;
        }
        if (attempt + 1 >= attempts) {
          std::fprintf(stderr,
                       "[%s] FATAL: cell %zu (seed %llu) exceeded the %gs "
                       "wall deadline on all %d attempt(s); failing the "
                       "sweep\n",
                       opts_.label, i,
                       static_cast<unsigned long long>(cfg.seed),
                       opts_.cellTimeout, attempts);
          throw std::runtime_error{
              "sweep cell " + std::to_string(i) + " exceeded the " +
              std::to_string(opts_.cellTimeout) + "s wall deadline " +
              std::to_string(attempts) + " time(s)"};
        }
        std::fprintf(stderr,
                     "[%s] cell %zu (seed %llu) hit the %gs wall deadline "
                     "(attempt %d/%d); retrying with the same seed\n",
                     opts_.label, i,
                     static_cast<unsigned long long>(cfg.seed),
                     opts_.cellTimeout, attempt + 1, attempts);
      }
    }
  };

  // Size the pool per batch: the requested (or default) thread count, but
  // never more workers than pending cells — idle OS threads would only add
  // spawn and wake overhead. Cell cost dwarfs pool construction.
  const unsigned requested =
      opts_.threads > 0 ? opts_.threads : ThreadPool::defaultThreads();
  ThreadPool pool{
      static_cast<unsigned>(std::min<std::size_t>(pending.size(), requested))};

  struct Progress {
    std::mutex mu;
    std::size_t done = 0;
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point lastPrint{};
  } progress;

  std::exception_ptr poolError;
  try {
    pool.parallelFor(pending.size(), [&](std::size_t p) {
      const std::size_t i = pending[p];
      runCell(i);
      if (journal) {
        std::lock_guard lock{journalMu};
        appendJournalRecord(journal, opts_.journalPath, i, results[i]);
      }
      if (!opts_.progress) return;
      std::lock_guard lock{progress.mu};
      ++progress.done;
      const auto now = std::chrono::steady_clock::now();
      const bool last = progress.done == pending.size();
      if (!last && now - progress.lastPrint < std::chrono::seconds(2)) return;
      progress.lastPrint = now;
      const double elapsed =
          std::chrono::duration<double>(now - progress.start).count();
      // ETA over the cells this process actually runs — resumed cells cost
      // nothing, so they are excluded from the rate and the remainder.
      const double eta =
          elapsed / static_cast<double>(progress.done) *
          static_cast<double>(pending.size() - progress.done);
      std::fprintf(stderr,
                   "[%s] %zu/%zu cells (%.0f%%, %zu resumed) on %u "
                   "thread(s), elapsed %.1fs, eta %.1fs\n",
                   opts_.label, stats_.cellsResumed + progress.done,
                   cells.size(),
                   100.0 *
                       static_cast<double>(stats_.cellsResumed +
                                           progress.done) /
                       static_cast<double>(cells.size()),
                   stats_.cellsResumed, pool.threadCount(), elapsed,
                   last ? 0.0 : eta);
    });
  } catch (...) {
    poolError = std::current_exception();
  }
  if (journal) std::fclose(journal);
  if (poolError) std::rethrow_exception(poolError);
  return results;
}

std::vector<std::vector<ScenarioResult>> SweepRunner::run(
    const std::vector<ScenarioConfig>& grid, int runs) {
  std::vector<ScenarioConfig> cells;
  if (runs > 0) {
    cells.reserve(grid.size() * static_cast<std::size_t>(runs));
    for (const ScenarioConfig& cfg : grid) {
      for (int s = 0; s < runs; ++s) {
        ScenarioConfig cell = cfg;
        cell.seed = seedForRun(cfg.seed, s);
        cells.push_back(cell);
      }
    }
  }

  std::vector<ScenarioResult> flat = runCells(cells);

  std::vector<std::vector<ScenarioResult>> grouped(grid.size());
  for (std::size_t g = 0; g < grid.size(); ++g) {
    auto& group = grouped[g];
    group.reserve(static_cast<std::size_t>(runs > 0 ? runs : 0));
    for (int s = 0; s < runs; ++s) {
      group.push_back(flat[g * static_cast<std::size_t>(runs) +
                           static_cast<std::size_t>(s)]);
    }
  }
  return grouped;
}

}  // namespace glr::experiment
