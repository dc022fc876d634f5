#pragma once
/// \file node_export.hpp
/// Per-node counter export for post-hoc debugging: one row per node with
/// its MAC statistics, storage occupancy/peak, and protocol counters
/// (routing::ProtocolCounters harvested per agent instead of summed). The
/// columns are generated from GLR_MAC_COUNTERS and GLR_PROTOCOL_COUNTERS,
/// so a counter added to either list is exported without further code.
///
/// The scenario-level ScenarioResult answers "how did the run go"; this
/// answers "which node" — the question behind anomalies like GLR's
/// manhattan delivery gap, where a handful of nodes absorb the evictions.
/// Format follows the path extension: ".json" (an object with a "nodes"
/// array) or ".csv" (header + one line per node). Written once at scenario
/// end by runScenario when ScenarioConfig::nodeCountersPath is set — never
/// on the hot path.

#include <string>
#include <vector>

namespace glr::net {
class World;
}
namespace glr::routing {
class DtnAgent;
}

namespace glr::experiment {

/// Writes per-node counters for every node of `world` to `path` (format by
/// extension; anything other than ".json"/".csv" throws
/// std::invalid_argument). `agents[i]` must be node i's agent. Throws
/// std::runtime_error if the file cannot be written.
void exportNodeCounters(const std::string& path, net::World& world,
                        const std::vector<routing::DtnAgent*>& agents);

}  // namespace glr::experiment
