#pragma once
/// \file scenario_checkpoint.hpp
/// Whole-scenario snapshot/restore orchestration.
///
/// A checkpoint captures everything a mid-run scenario owns that is not a
/// pure function of (config, seed): the kernel clock and pending-event set
/// (as descriptor-tagged (time, seq) records — see event_kinds.hpp), the
/// channel history ring, every node's MAC and routing-agent state, the
/// churn/fault/traffic processes and the metrics sketches. Restoring into a
/// freshly constructed scenario of the SAME config continues the run
/// bit-identically: construction-derived state (positions, per-node RNG
/// forks, spatial index) is rebuilt by construction, serialized state
/// overwrites every mutable field, and the pending events are re-created
/// under their exact original keys.
///
/// Mismatches refuse loudly: a checkpoint restored into a different
/// configuration (digest), an unsupported version, a truncated or corrupt
/// file, or an event record that names an unknown kind, an absent
/// component or an out-of-range node all throw std::runtime_error naming
/// the defect.

#include <cstdint>
#include <string>
#include <vector>

#include "experiment/scenario.hpp"
#include "sim/simulator.hpp"

namespace glr::net {
class World;
class ChurnProcess;
class FaultProcess;
}
namespace glr::dtn {
class MetricsCollector;
}
namespace glr::routing {
class DtnAgent;
}
namespace glr::experiment {
class TrafficProcess;
}

namespace glr::ckpt {

/// GLRK section ids (on-disk format: append-only, never renumber).
enum SectionId : std::uint32_t {
  kSectionEvents = 1,   // pending (time, seq, desc) records, fire order
  kSectionChannel = 2,  // transmission history ring + stats
  kSectionNodes = 3,    // per node: MAC then routing agent
  kSectionChurn = 4,    // present iff churn is enabled
  kSectionFaults = 5,   // present iff fault injection is enabled
  kSectionTraffic = 6,  // present iff a stochastic traffic model runs
  kSectionMetrics = 7,  // delivery bitmaps, counters, latency sketches
};

/// The section's name ("events", "channel", ...), or "unknown" for an id
/// this build does not write.
[[nodiscard]] const char* sectionName(std::uint32_t id);

/// Live components of one running scenario, wired up by runScenario.
/// Null pointers mean "this config does not build that component" — the
/// writer skips the section and the reader enforces agreement.
struct ScenarioComponents {
  sim::Simulator* sim = nullptr;
  net::World* world = nullptr;
  const experiment::ScenarioConfig* cfg = nullptr;
  const std::vector<routing::DtnAgent*>* agents = nullptr;
  dtn::MetricsCollector* metrics = nullptr;
  net::ChurnProcess* churn = nullptr;             // null unless churn enabled
  net::FaultProcess* faults = nullptr;            // null unless faults enabled
  experiment::TrafficProcess* traffic = nullptr;  // null for the "paper" model
  /// The periodic snapshot writer, sink of the kCheckpointTimer event; null
  /// unless the config sets checkpointEvery.
  sim::EventSink* checkpointTimer = nullptr;
};

/// Digest over every ScenarioConfig knob that shapes the simulated event
/// sequence: one walk of GLR_SCENARIO_CONFIG (experiment/scenario.hpp) and
/// the field lists of the structs it embeds, each K entry encoded by type
/// in list order. H entries (output paths, the wall-clock watchdog) are
/// skipped; checkpointEvery is a K entry because the periodic writer event
/// is part of the sequence. A struct knob without a field list does not
/// compile.
[[nodiscard]] std::uint64_t configDigest(const experiment::ScenarioConfig& cfg);

/// Snapshots the full scenario state to `path` (atomic tmp+rename).
void writeCheckpoint(const std::string& path, const ScenarioComponents& c);

/// Restores `path` into a freshly built scenario. Must run after every
/// component is constructed and started (their initial events are cleared)
/// and before Simulator::run. Refuses a digest mismatch, a version or
/// integrity defect, tracing armed on the restored run, or any event record
/// that fails a check (see ownerOf in scenario_checkpoint.cpp) — all while
/// restoring, never when the event would fire.
void restoreCheckpoint(const std::string& path, const ScenarioComponents& c);

}  // namespace glr::ckpt
