#include "experiment/node_export.hpp"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "experiment/scenario.hpp"
#include "mac/mac.hpp"
#include "net/world.hpp"
#include "routing/dtn_agent.hpp"

namespace glr::experiment {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Column names and row values are generated from the same two counter
/// lists in the same order, so they cannot drift apart: node, the MAC
/// block (named like its ScenarioResult sums), macQueueAtEnd, storage
/// used/peak, then every ProtocolCounters field under its own name.
constexpr const char* kFieldNames[] = {
    "node",
#define GLR_COLUMN(field, resultField) #resultField,
    GLR_MAC_COUNTERS(GLR_COLUMN)
#undef GLR_COLUMN
    "macQueueAtEnd", "storageUsed", "storagePeak",
#define GLR_COLUMN(field, resultField) #field,
    GLR_PROTOCOL_COUNTERS(GLR_COLUMN)
#undef GLR_COLUMN
};

constexpr std::size_t kNumFields = std::size(kFieldNames);

std::vector<std::uint64_t> fieldValues(
    net::World& world, const std::vector<routing::DtnAgent*>& agents, int i) {
  const routing::DtnAgent* agent =
      static_cast<std::size_t>(i) < agents.size() ? agents[i] : nullptr;
  const mac::MacStats& ms = world.macOf(i).stats();
  routing::ProtocolCounters pc;
  if (agent != nullptr) agent->harvestCounters(pc);
  return {
      static_cast<std::uint64_t>(i),
#define GLR_VALUE(field, resultField) ms.field,
      GLR_MAC_COUNTERS(GLR_VALUE)
#undef GLR_VALUE
      world.macOf(i).queueLength(),
      agent != nullptr ? agent->storageUsed() : 0,
      agent != nullptr ? agent->storagePeak() : 0,
#define GLR_VALUE(field, resultField) pc.field,
      GLR_PROTOCOL_COUNTERS(GLR_VALUE)
#undef GLR_VALUE
  };
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void exportNodeCounters(const std::string& path, net::World& world,
                        const std::vector<routing::DtnAgent*>& agents) {
  const bool json = endsWith(path, ".json");
  if (!json && !endsWith(path, ".csv")) {
    throw std::invalid_argument{
        "exportNodeCounters: path must end in .json or .csv: " + path};
  }
  FilePtr file(std::fopen(path.c_str(), "w"));
  if (!file) {
    throw std::runtime_error{"exportNodeCounters: cannot write " + path +
                             ": " + std::strerror(errno)};
  }

  const auto n = static_cast<int>(world.numNodes());
  if (json) {
    std::fprintf(file.get(), "{\n  \"nodes\": [\n");
    for (int i = 0; i < n; ++i) {
      const auto values = fieldValues(world, agents, i);
      std::fprintf(file.get(), "    {");
      for (std::size_t f = 0; f < kNumFields; ++f) {
        std::fprintf(file.get(), "%s\"%s\": %llu", f == 0 ? "" : ", ",
                     kFieldNames[f],
                     static_cast<unsigned long long>(values[f]));
      }
      std::fprintf(file.get(), "}%s\n", i + 1 < n ? "," : "");
    }
    std::fprintf(file.get(), "  ]\n}\n");
  } else {
    for (std::size_t f = 0; f < kNumFields; ++f) {
      std::fprintf(file.get(), "%s%s", f == 0 ? "" : ",", kFieldNames[f]);
    }
    std::fprintf(file.get(), "\n");
    for (int i = 0; i < n; ++i) {
      const auto values = fieldValues(world, agents, i);
      for (std::size_t f = 0; f < kNumFields; ++f) {
        std::fprintf(file.get(), "%s%llu", f == 0 ? "" : ",",
                     static_cast<unsigned long long>(values[f]));
      }
      std::fprintf(file.get(), "\n");
    }
  }
  // stdio buffers writes, so a full disk or yanked filesystem surfaces only
  // here — check, or a run "succeeds" having exported a truncated file.
  if (std::fflush(file.get()) != 0 || std::ferror(file.get())) {
    throw std::runtime_error{"exportNodeCounters: write failed for " + path +
                             ": " + std::strerror(errno)};
  }
}

}  // namespace glr::experiment
