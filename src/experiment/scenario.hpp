#pragma once
/// \file scenario.hpp
/// End-to-end scenario runner reproducing the paper's simulation setup
/// (Table 1): 50 nodes, 1500 m x 300 m, random waypoint 0-20 m/s with zero
/// pause, 1 Mbps 802.11-like MAC with queue limit 150, two-ray ground
/// propagation, 1000-byte payloads, 45 traffic endpoints generating one
/// message per second.
///
/// A scenario is a pure function of (config, seed): every subsystem draws
/// from a forked RNG stream, so runs are reproducible and protocols can be
/// compared on identical topologies and traffic.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/glr_agent.hpp"
#include "dtn/buffer.hpp"
#include "experiment/traffic.hpp"
#include "mobility/registry.hpp"
#include "net/churn.hpp"
#include "net/faults.hpp"
#include "routing/dtn_agent.hpp"

namespace glr::experiment {

enum class Protocol {
  kGlr,
  kEpidemic,
  kDirectDelivery,  // extension baseline: source waits to meet destination
  kSprayAndWait,    // extension baseline: binary spray with copy budget
};

[[nodiscard]] const char* protocolName(Protocol p);

// The config structs below are declared from K(type, name, default) field
// lists, in declaration order, that the checkpoint config digest walks
// (ckpt::configDigest): a knob's digest slot is its list entry.
#define GLR_FIELD(type, name, def) type name = def;

/// Which mobility model drives the nodes, selected by registry name
/// (mobility/registry.hpp) so a sweep's mobility axis is just a vector of
/// strings. Model knobs live on the embedded mobility::ModelParams and go
/// to the factory verbatim — no hand-copied field list to forget — EXCEPT
/// params.area / params.speedMin / params.speedMax / params.pause, which
/// runScenario always overlays from ScenarioConfig (setting them here has
/// no effect), and params.home, which is overlaid per node from the drawn
/// cluster centres only when model == "cluster" (custom home-based models
/// receive the verbatim value for every node). The default reproduces the
/// paper's random waypoint bit-identically.
#define GLR_MOBILITY_SPEC(K)                                                \
  K(std::string, model, "waypoint")                                         \
  K(int, numClusters, 4) /* cluster: how many shared home points to draw */ \
  K(mobility::ModelParams, params, {})
struct MobilitySpec {
  GLR_MOBILITY_SPEC(GLR_FIELD)
};

/// Duty-cycled node churn: the embedded net::ChurnProcess::Params go to
/// the churn layer verbatim (fraction/upMean/downMean/start — see
/// net/churn.hpp). Disabled by default — the default scenario stays
/// bit-identical to the paper setup.
#define GLR_CHURN_SPEC(K) \
  K(bool, enabled, false) K(net::ChurnProcess::Params, params, {})
struct ChurnSpec {
  GLR_CHURN_SPEC(GLR_FIELD)
};

/// Named churn levels for sweep grids: "none", "light", "moderate",
/// "heavy". Throws std::invalid_argument for anything else.
[[nodiscard]] ChurnSpec churnPreset(const std::string& name);

/// Fault injection: the embedded net::FaultProcess::Params go to the fault
/// layer verbatim (burst loss, frame corruption, stuck-node stalls — see
/// net/faults.hpp). Disabled by default — the default scenario stays
/// bit-identical to the paper setup.
#define GLR_FAULT_SPEC(K) \
  K(bool, enabled, false) K(net::FaultProcess::Params, params, {})
struct FaultSpec {
  GLR_FAULT_SPEC(GLR_FIELD)
};

/// Which structure orders the kernel's pending-event set. Both modes fire
/// the identical event sequence (same (time, seq) tie-break — pinned by the
/// KernelRegression golden under each); the calendar queue keeps per-event
/// cost flat for the million-deep queues of city-scale populations.
enum class KernelQueue { kHeap4, kCalendar };

/// Which receiver index backs the channel. kSnapshot refreshes every node
/// each rebuild interval (the pinned-golden default); kTiled refreshes only
/// tiles on an activity-paced janitor cycle and pads scan windows by each
/// node's individual staleness, making the per-query cost O(active region)
/// instead of O(N). Both produce bit-identical results for mobility models
/// whose position is a pure function of time (all built-in models).
enum class SpatialIndexMode { kSnapshot, kTiled };

/// Every ScenarioConfig member in declaration order: K(type, name,
/// default) for a knob the config digest covers, H(type, name, default) for
/// a host setting it skips (output paths, the wall-clock watchdog), and
/// R(type, value) for a retired digest slot that declares nothing and
/// hashes its old default, so no digest moves.
#define GLR_SCENARIO_CONFIG(K, H, R)                                          \
  K(Protocol, protocol, Protocol::kGlr)                                       \
  /* Topology / radio (paper Table 1).                                     */ \
  K(int, numNodes, 50)                                                        \
  K(double, areaWidth, 1500.0)                                                \
  K(double, areaHeight, 300.0)                                                \
  K(double, radius, 100.0) /* transmission range, 50-250 m */                 \
  K(double, speedMin, 0.1) /* "0-20 m/s uniform" with a positive floor */     \
  K(double, speedMax, 20.0)                                                   \
  K(double, pause, 0.0)                                                       \
  K(double, bitRateBps, 1e6)                                                  \
  K(std::size_t, queueLimit, 150)                                             \
  /* Scenario diversity: pluggable mobility, node churn, heterogeneous     */ \
  /* radios. Per-node transmit ranges are radius * U[radiusSpreadMin,      */ \
  /* radiusSpreadMax]; 1.0/1.0 (default) keeps the homogeneous radio and   */ \
  /* draws nothing.                                                        */ \
  K(MobilitySpec, mobility, {})                                               \
  K(ChurnSpec, churn, {})                                                     \
  K(double, radiusSpreadMin, 1.0)                                             \
  K(double, radiusSpreadMax, 1.0)                                             \
  /* Workload. `traffic` selects the arrival process: the default "paper"  */ \
  /* model replays the fixed shuffled-pair schedule below bit-identically; */ \
  /* the stochastic models (poisson/onoff/hotspot/flashcrowd) read         */ \
  /* traffic.rate and their own knobs instead of numMessages /             */ \
  /* messageInterval and can offer millions of messages per run.           */ \
  K(double, simTime, 3800.0)                                                  \
  K(int, numMessages, 1980)                                                   \
  K(double, messageInterval, 1.0) /* "packets are generated every second" */  \
  K(double, trafficStart, 10.0)   /* let neighbor tables converge first */    \
  K(int, trafficNodes, 45) /* paper: 45 senders/destinations out of 50 */     \
  K(TrafficSpec, traffic, {})                                                 \
  /* Fault injection (off by default).                                     */ \
  K(FaultSpec, faults, {})                                                    \
  /* Protocol knobs.                                                       */ \
  K(std::size_t, storageLimit, dtn::kUnlimitedStorage)                        \
  K(double, checkInterval, 0.9)                                               \
  K(bool, custody, true)                                                      \
  K(bool, faceRouting, true)                                                  \
  /* Slot of the retired per-node witness-veto switch (default on).        */ \
  R(bool, true)                                                               \
  K(int, copiesOverride, -1) /* -1: Algorithm 1 decides */                    \
  K(core::LocationMode, locationMode, core::LocationMode::kSourceKnows)       \
  K(double, helloInterval, 0.75)                                              \
  K(double, cacheTimeout, 6.0)                                                \
  K(int, sprayBudget, 8) /* kSprayAndWait only */                             \
  /* GLR overload controls (see GlrParams): buffer occupancy at which a    */ \
  /* node refuses new custody (0 = never, the historical default), and the */ \
  /* AIMD custody window driven by the custody-ack RTT estimator.          */ \
  K(std::size_t, custodyWatermark, 0)                                         \
  K(bool, congestionControl, false)                                           \
  /* Adversarial-resilience knobs (all off by default — bit-identical      */ \
  /* goldens). glrRecovery arms GLR's custody-failure detection: suspicion */ \
  /* scoring on custody timeouts/NACKs, suspect-avoiding reroute, and the  */ \
  /* bounded spray fallback for copies that keep failing. messageTtl > 0   */ \
  /* gives bundles a lifetime (counted expiry drops) for every protocol.   */ \
  /* Misbehaving-node populations ride in faults.params.adversary.         */ \
  /* Detector tuning for glrRecovery (GlrParams defaults; see              */ \
  /* core/glr_agent.hpp): custody failures on a hop before it is marked    */ \
  /* suspect, and failures on a copy before the spray fallback clones it.  */ \
  K(bool, glrRecovery, false)                                                 \
  K(int, glrSuspicionThreshold, 2)                                            \
  K(int, glrRecoveryAfterFailures, 3)                                         \
  K(int, glrRecoveryFanout, 2)                                                \
  K(double, glrRecoveryCooldown, 15.0)                                        \
  K(double, glrSuspicionTtl, 120.0)                                           \
  K(double, messageTtl, 0.0)                                                  \
  /* Scaling-path knobs (city-scale worlds). Defaults keep every pinned    */ \
  /* golden bit-identical; bench_scale and the scale tests flip them.      */ \
  K(KernelQueue, kernelQueue, KernelQueue::kHeap4)                            \
  K(SpatialIndexMode, spatialIndex, SpatialIndexMode::kSnapshot)              \
  /* Steady-state table eviction for long/large runs (0 = keep forever,    */ \
  /* the historical default): neighbor records stale beyond                */ \
  /* `neighborEvictAfterFactor * hello expiry` are erased, and GLR         */ \
  /* location observations older than `locationEvictAfter` seconds are     */ \
  /* pruned. Both bound an idle node's footprint by its active             */ \
  /* neighborhood instead of by everything it has ever heard.              */ \
  K(double, neighborEvictAfterFactor, 0.0)                                    \
  K(double, locationEvictAfter, 0.0)                                          \
  /* Observability (all off by default — bit-identical goldens, zero-alloc */ \
  /* hot path). tracePath non-empty arms the flight recorder: every        */ \
  /* send/delivery/custody/drop/expiry/suspicion event is written in       */ \
  /* batches to a length-prefixed binary file — see trace/recorder.hpp;    */ \
  /* inspect with tools/trace_inspect.                                     */ \
  /* nodeCountersPath non-empty exports per-node MAC/protocol/storage      */ \
  /* counters at scenario end; the format follows the extension (".json"   */ \
  /* or ".csv").                                                           */ \
  H(std::string, tracePath, {})                                               \
  H(std::string, nodeCountersPath, {})                                        \
  /* Crash safety (see checkpoint/scenario_checkpoint.hpp). checkpointPath */ \
  /* non-empty + checkpointEvery > 0 snapshots the full simulation state   */ \
  /* every checkpointEvery sim-seconds (atomic replace, so a crash leaves  */ \
  /* the previous snapshot intact). restoreFrom non-empty resumes from     */ \
  /* such a snapshot and continues bit-identically to the uninterrupted    */ \
  /* run. checkpointEvery changes the event sequence (the writer is a      */ \
  /* simulated event) and is therefore a digested knob; the paths are not. */ \
  H(std::string, checkpointPath, {})                                          \
  K(double, checkpointEvery, 0.0)                                             \
  H(std::string, restoreFrom, {})                                             \
  /* Watchdog: abort the run with sim::WallClockTimeout after this many    */ \
  /* wall-clock seconds (0 = no deadline). Host timing only — never part   */ \
  /* of the simulated event sequence or the checkpoint config digest.      */ \
  H(double, wallDeadlineSeconds, 0.0)                                         \
  K(std::uint64_t, seed, 1)

struct ScenarioConfig {
#define GLR_RETIRED(type, value)
  GLR_SCENARIO_CONFIG(GLR_FIELD, GLR_FIELD, GLR_RETIRED)
#undef GLR_RETIRED
};
#undef GLR_FIELD

/// The mac::MacStats counters summed over every node into ScenarioResult,
/// one X(field, resultField) entry each (same shape as
/// GLR_PROTOCOL_COUNTERS in routing/dtn_agent.hpp). The losses sublist is
/// the MAC's share of conservationHolds' counted drops: drop-tail, retry
/// limit, and sends lost to a churned-down radio. ackTimeouts counts the
/// ACK waits that expired, busyDeferrals the attempts deferred on a busy
/// medium.
#define GLR_MAC_LOSSES(X)              \
  X(queueDrops, macQueueDrops)         \
  X(retryDrops, macRetryDrops)         \
  X(radioDownDrops, macRadioDownDrops)
#define GLR_MAC_COUNTERS(X)            \
  X(dataTx, macDataTx)                 \
  GLR_MAC_LOSSES(X)                    \
  X(ackTimeouts, macAckTimeouts)       \
  X(busyDeferrals, macBusyDeferrals)

/// Every deterministic ScenarioResult field in declaration order: F(type,
/// name) for a result-only field, C(field, name) for a std::uint64_t
/// counter summed from one of the two lists above. The struct, the
/// comparator (firstMismatch) and the sweep journal's layout fingerprint
/// are generated from it.
#define GLR_SCENARIO_RESULT_FIELDS(F, C)                                    \
  /* Delivery (the paper's headline numbers); latency in seconds over    */ \
  /* delivered messages only.                                            */ \
  F(std::size_t, created)                                                   \
  F(std::size_t, delivered)                                                 \
  F(double, deliveryRatio)                                                  \
  F(double, avgLatency)                                                     \
  F(double, avgHops)                                                        \
  /* Storage (Tables 4/5): message-count peaks over nodes.               */ \
  F(double, maxPeakStorage)                                                 \
  F(double, avgPeakStorage)                                                 \
  /* Network-layer health; faultFrameDrops are deliveries suppressed by  */ \
  /* fault injection.                                                    */ \
  GLR_MAC_COUNTERS(C)                                                       \
  F(std::uint64_t, collisions)                                              \
  F(double, airTimeSeconds)                                                 \
  F(std::uint64_t, faultFrameDrops)                                         \
  F(std::uint64_t, duplicateDeliveries)                                     \
  /* Protocol internals, harvested via DtnAgent::harvestCounters.        */ \
  GLR_PROTOCOL_COUNTERS(C)                                                  \
  /* Misbehavior counted at the adversary layer: every blackhole or      */ \
  /* greyhole discard lands in exactly one of these.                     */ \
  F(std::uint64_t, advBlackholeDrops)                                       \
  F(std::uint64_t, advGreyholeDrops)                                        \
  F(std::uint64_t, advSelfishRefusals)                                      \
  F(std::uint64_t, advFlapTransitions)                                      \
  /* Copies still held by agents, and frames still in MAC queues, when   */ \
  /* the scenario ends (see conservationHolds).                          */ \
  F(std::uint64_t, bufferedAtEnd)                                           \
  F(std::uint64_t, macQueueAtEnd)                                           \
  /* First-delivery latency from the online sketches (stats/sketch.hpp): */ \
  /* t-digest quantiles, exact streaming min/max/stddev; zero when       */ \
  /* nothing is delivered.                                               */ \
  F(double, latencyP50)                                                     \
  F(double, latencyP90)                                                     \
  F(double, latencyP99)                                                     \
  F(double, latencyMin)                                                     \
  F(double, latencyMax)                                                     \
  F(double, latencyStddev)                                                  \
  /* Flight-recorder records written (0 with tracing off).               */ \
  F(std::uint64_t, traceEventsRecorded)                                     \
  F(std::uint64_t, eventsExecuted)

/// One scenario's outcome. Every field but wallSeconds is a pure function
/// of (config, seed); counters whose mechanism is off stay zero.
struct ScenarioResult {
#define GLR_RESULT_FIELD(type, name) type name = 0;
#define GLR_RESULT_COUNTER(field, name) std::uint64_t name = 0;
  GLR_SCENARIO_RESULT_FIELDS(GLR_RESULT_FIELD, GLR_RESULT_COUNTER)
#undef GLR_RESULT_FIELD
#undef GLR_RESULT_COUNTER
  /// Host timing: outside the field list, never compared or pinned.
  double wallSeconds = 0.0;
};

/// Calls `f(name, &ScenarioResult::member)` for every listed field, in
/// declaration order (wallSeconds excluded).
template <class F>
void forEachResultField(F&& f) {
#define GLR_VISIT(typeOrField, name) f(#name, &ScenarioResult::name);
  GLR_SCENARIO_RESULT_FIELDS(GLR_VISIT, GLR_VISIT)
#undef GLR_VISIT
}

/// The name of the first listed field on which `a` and `b` differ (exact
/// `==`, so a NaN never matches), or "" when they agree on all of them.
[[nodiscard]] std::string_view firstMismatch(const ScenarioResult& a,
                                             const ScenarioResult& b);

/// The conservation law with counted losses: every created message is
/// delivered, still buffered at an agent, still in a MAC queue, or
/// accounted by a counted drop (MAC queue/retry/radio-down, buffer
/// eviction, TTL expiry, adversarial discard or refusal). Replication makes
/// the right side count copies, so only `<=` holds — but a message may
/// never vanish without a counter moving.
[[nodiscard]] bool conservationHolds(const ScenarioResult& r);

/// Runs one scenario to completion and collects results.
[[nodiscard]] ScenarioResult runScenario(const ScenarioConfig& cfg);

/// Runs `runs` replicate seeds of the same configuration across the
/// deterministic parallel engine (runner.hpp): cells execute on
/// GLR_BENCH_THREADS workers (default hardware_concurrency) and land in
/// replicate order, so the returned vector is identical to a serial loop at
/// any thread count.
[[nodiscard]] std::vector<ScenarioResult> runScenarioSeeds(
    ScenarioConfig cfg, int runs);

/// Projects one metric across runs (for confidence intervals).
[[nodiscard]] std::vector<double> metricAcross(
    const std::vector<ScenarioResult>& rs, double ScenarioResult::*field);

}  // namespace glr::experiment
