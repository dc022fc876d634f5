// checkpoint_inspect — validate and summarize GLR scenario checkpoints.
//
// A checkpoint is the length-prefixed, checksummed binary snapshot produced
// when ScenarioConfig::checkpointPath is set (format spec:
// src/checkpoint/file.hpp). This tool is the operational side of crash
// recovery: before pointing a resumed run at a snapshot, `validate` answers
// "is this file intact?" and `summary` answers "how far had the run
// gotten?" — without constructing a scenario.
//
// Usage:
//   checkpoint_inspect validate <ckpt>   structural + checksum check, 0/1
//   checkpoint_inspect summary <ckpt>    header fields + per-section sizes
//   checkpoint_inspect selftest          write a snapshot from a tiny
//                                        scenario, read it back, restore it
//                                        and check bit-identical continuation

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "checkpoint/file.hpp"
#include "checkpoint/scenario_checkpoint.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"

namespace {

using glr::ckpt::CheckpointFile;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;

int cmdValidate(const std::string& path) {
  const CheckpointFile f = CheckpointFile::read(path);
  std::printf("ok: %zu sections, sim time %.6f\n", f.sections.size(),
              f.simNow);
  return 0;
}

int cmdSummary(const std::string& path) {
  const CheckpointFile f = CheckpointFile::read(path);
  std::printf("config digest      %016llx\n",
              static_cast<unsigned long long>(f.configDigest));
  std::printf("sim time           %.6f s\n", f.simNow);
  std::printf("events executed    %llu\n",
              static_cast<unsigned long long>(f.executed));
  std::printf("next event seq     %llu\n",
              static_cast<unsigned long long>(f.nextSeq));
  std::printf("sections           %zu\n", f.sections.size());
  for (const glr::ckpt::Section& s : f.sections) {
    std::printf("  [%u] %-8s %zu bytes\n", static_cast<unsigned>(s.id),
                glr::ckpt::sectionName(s.id), s.bytes.size());
  }
  return 0;
}

// Runs a tiny scenario that writes a snapshot, validates the file, then
// restores it into a fresh scenario and checks the continued run matches
// the uninterrupted one — the full crash-recovery path as a CI smoke.
int cmdSelftest() {
  const std::string path = "checkpoint_inspect_selftest.ckpt";
  ScenarioConfig cfg;
  cfg.numNodes = 15;
  cfg.trafficNodes = 12;
  cfg.simTime = 60.0;
  cfg.numMessages = 20;
  cfg.seed = 77;
  cfg.checkpointEvery = 40.0;  // one snapshot at t=40, 20 s tail
  cfg.checkpointPath = path;
  const ScenarioResult golden = glr::experiment::runScenario(cfg);

  const CheckpointFile f = CheckpointFile::read(path);
  if (f.configDigest != glr::ckpt::configDigest(cfg) || f.simNow <= 0.0 ||
      f.simNow > cfg.simTime || f.sections.empty()) {
    std::fprintf(stderr, "selftest FAILED: snapshot header is wrong\n");
    std::remove(path.c_str());
    return 1;
  }

  ScenarioConfig resumed = cfg;
  resumed.checkpointPath.clear();
  resumed.restoreFrom = path;
  const ScenarioResult tail = glr::experiment::runScenario(resumed);
  std::remove(path.c_str());
  const std::string_view field = glr::experiment::firstMismatch(golden, tail);
  if (!field.empty()) {
    std::fprintf(stderr,
                 "selftest FAILED: restored run diverged (first differing "
                 "field: %.*s)\n",
                 static_cast<int>(field.size()), field.data());
    return 1;
  }
  std::printf("selftest ok: snapshot at t=%.1f, restored run bit-identical\n",
              f.simNow);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: checkpoint_inspect <command> ...\n"
               "  validate <ckpt>   structural + checksum check\n"
               "  summary <ckpt>    header fields + per-section sizes\n"
               "  selftest          write, read back and restore a snapshot\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "selftest") return cmdSelftest();
    if (argc < 3) return usage();
    const std::string path = argv[2];
    if (cmd == "validate") return cmdValidate(path);
    if (cmd == "summary") return cmdSummary(path);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
