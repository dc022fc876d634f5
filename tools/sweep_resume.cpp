// sweep_resume — kill-and-resume differential for the resumable sweep layer.
//
// The unit tests simulate interruption by truncating journals; this tool
// does the real thing: it forks a child that runs a journaled sweep, sends
// the child SIGKILL once the journal shows progress (so the kill lands
// mid-sweep, possibly mid-append and mid-cell), then resumes the sweep over
// the surviving journal in the parent and checks every cell's result is
// bit-identical to an uninterrupted reference sweep. This is the end-to-end
// crash-recovery guarantee, exercised with an actual process death.
//
// Usage:
//   sweep_resume selftest          fork, SIGKILL mid-sweep, resume, compare
//   sweep_resume run <journal>     run the demo sweep over <journal>
//                                  (kill it yourself; rerun to resume)

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace {

using glr::experiment::firstMismatch;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SweepRunner;

/// The demo sweep: 8 replicates of a small GLR scenario, a few hundred
/// milliseconds per cell — long enough for a kill to land mid-sweep, short
/// enough for CI.
std::vector<ScenarioConfig> demoCells() {
  std::vector<ScenarioConfig> cells;
  for (int s = 0; s < 8; ++s) {
    ScenarioConfig cfg;
    cfg.numNodes = 25;
    cfg.trafficNodes = 20;
    cfg.simTime = 150.0;
    cfg.numMessages = 40;
    cfg.seed = glr::experiment::seedForRun(61, s);
    cells.push_back(cfg);
  }
  return cells;
}

SweepRunner::Options demoOptions(const std::string& journal, bool progress) {
  SweepRunner::Options opts;
  opts.threads = 2;
  opts.progress = progress;
  opts.label = "sweep_resume";
  opts.journalPath = journal;
  opts.cellCheckpointEvery = 60.0;  // in-cell snapshots for mid-cell kills
  return opts;
}

int cmdRun(const std::string& journal) {
  SweepRunner runner{demoOptions(journal, true)};
  const std::vector<ScenarioResult> results = runner.runCells(demoCells());
  std::printf("done: %zu cells (%zu resumed, %zu restored mid-cell)\n",
              results.size(), runner.stats().cellsResumed,
              runner.stats().cellsRestored);
  return 0;
}

long fileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size) : -1;
}

int cmdSelftest() {
  const std::string journal = "sweep_resume_selftest.journal";
  std::remove(journal.c_str());
  const std::vector<ScenarioConfig> cells = demoCells();

  // Uninterrupted reference, under the same crash-safety wiring (the
  // in-cell snapshot cadence shapes each cell's event sequence). The pool
  // joins all its threads before runCells returns, so the fork below is
  // taken from a single-threaded process.
  SweepRunner::Options opts = demoOptions(journal + ".golden", false);
  SweepRunner goldenRunner{opts};
  const std::vector<ScenarioResult> golden = goldenRunner.runCells(cells);
  std::remove((journal + ".golden").c_str());

  const pid_t child = ::fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }
  if (child == 0) {
    // Child: run the journaled sweep to completion (the parent will
    // normally kill us first). _exit, never exit: no parent-state teardown.
    try {
      (void)SweepRunner{demoOptions(journal, false)}.runCells(cells);
    } catch (...) {
      ::_exit(3);
    }
    ::_exit(0);
  }

  // Parent: SIGKILL the child once the journal holds at least two complete
  // records — mid-sweep, with cells in flight. If the child finishes first
  // the resume below degenerates to "all cells from journal", which must
  // still compare equal.
  const long headerSize = 32;  // GLRJ v2, see runner.cpp
  const long recordSize = 8 + static_cast<long>(sizeof(ScenarioResult));
  const long killAt = headerSize + 2 * recordSize;
  bool killed = false;
  for (int spin = 0; spin < 30000; ++spin) {
    int status = 0;
    if (::waitpid(child, &status, WNOHANG) == child) break;  // finished
    if (fileSize(journal) >= killAt) {
      ::kill(child, SIGKILL);
      ::waitpid(child, &status, 0);
      killed = true;
      break;
    }
    ::usleep(1000);
  }
  if (!killed) {
    int status = 0;
    ::waitpid(child, &status, 0);  // reap if the loop broke via WNOHANG
  }

  // Resume over whatever the kill left behind.
  SweepRunner resumeRunner{demoOptions(journal, false)};
  const std::vector<ScenarioResult> resumed = resumeRunner.runCells(cells);

  bool ok = true;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string_view field = firstMismatch(golden[i], resumed[i]);
    if (!field.empty()) {
      std::fprintf(stderr,
                   "selftest FAILED: cell %zu diverged after kill+resume "
                   "(first differing field: %.*s)\n",
                   i, static_cast<int>(field.size()), field.data());
      ok = false;
    }
  }
  std::remove(journal.c_str());
  // A kill mid-snapshot-write can leave a detectable .tmp beside a cell
  // snapshot; sweep away any such litter.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string snap = journal + ".cell" + std::to_string(i) + ".ckpt";
    std::remove(snap.c_str());
    std::remove((snap + ".tmp").c_str());
  }
  if (!ok) return 1;
  std::printf(
      "selftest ok: %s, resumed %zu/%zu cells from journal (%zu continued "
      "mid-cell), all 8 bit-identical to the uninterrupted sweep\n",
      killed ? "child SIGKILLed mid-sweep" : "child finished before the kill",
      resumeRunner.stats().cellsResumed, cells.size(),
      resumeRunner.stats().cellsRestored);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: sweep_resume <command> ...\n"
               "  selftest          fork, SIGKILL mid-sweep, resume, compare\n"
               "  run <journal>     run the demo sweep over <journal>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "selftest") return cmdSelftest();
    if (cmd == "run" && argc >= 3) return cmdRun(argv[2]);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
