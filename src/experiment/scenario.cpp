#include "experiment/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <numbers>
#include <stdexcept>

#include "checkpoint/event_kinds.hpp"
#include "checkpoint/scenario_checkpoint.hpp"
#include "dtn/metrics.hpp"
#include "experiment/node_export.hpp"
#include "experiment/runner.hpp"
#include "experiment/traffic.hpp"
#include "mobility/mobility.hpp"
#include "mobility/registry.hpp"
#include "net/churn.hpp"
#include "net/faults.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "routing/direct.hpp"
#include "routing/epidemic.hpp"
#include "routing/spray_wait.hpp"
#include "sim/rng.hpp"
#include "spanner/ldtg.hpp"
#include "stats/sketch.hpp"
#include "stats/summary.hpp"
#include "trace/recorder.hpp"

namespace glr::experiment {

const char* protocolName(Protocol p) {
  switch (p) {
    case Protocol::kGlr:
      return "GLR";
    case Protocol::kEpidemic:
      return "Epidemic";
    case Protocol::kDirectDelivery:
      return "DirectDelivery";
    case Protocol::kSprayAndWait:
      return "SprayAndWait";
  }
  return "?";
}

namespace {

/// RNG stream ids, one per subsystem, so configuration changes in one
/// subsystem never perturb another's draws. The diversity streams
/// (clusters/churn/radio) are only forked when their feature is enabled;
/// forking is const on the master, so even eager forks would not perturb
/// the other streams.
enum Stream : std::uint64_t {
  kPlacement = 1,
  kMobility = 2,      // + node id
  kTraffic = 3,
  kMac = 4,           // + node id
  kAgent = 5,         // + node id
  kClusters = 6,      // cluster-mobility home points
  kChurn = 7,         // duty-cycle toggles (per-node forks inside)
  kRadio = 8,         // heterogeneous per-node ranges
  kTrafficModel = 9,  // stochastic traffic models (per-source forks inside)
  kFaults = 10,       // fault injection (loss/burst/stall forks inside)
};

/// Builds one node's routing agent from its world, id, metrics sink and RNG
/// stream.
using AgentFactory = std::function<std::unique_ptr<routing::DtnAgent>(
    net::World&, int, dtn::MetricsCollector*, sim::Rng)>;

/// A factory whose agents all share `params` as one immutable block: the
/// params are identical for every node, and a by-value copy per agent is a
/// measurable share of the idle-node budget at city scale.
template <class AgentT, class Params>
AgentFactory sharedParamsFactory(Params params) {
  auto shared = std::make_shared<const Params>(std::move(params));
  return [shared](net::World& world, int id, dtn::MetricsCollector* metrics,
                  sim::Rng rng) -> std::unique_ptr<routing::DtnAgent> {
    return std::make_unique<AgentT>(world, id, shared, metrics, rng);
  };
}

/// The agent factory of `cfg`'s protocol, with its parameters built once
/// for the whole population.
AgentFactory agentFactory(const ScenarioConfig& cfg) {
  net::NeighborService::Params hello;
  hello.helloInterval = cfg.helloInterval;
  hello.expiry = 3.0 * cfg.helloInterval;
  hello.evictAfterFactor = cfg.neighborEvictAfterFactor;
  // Population-derived pre-sizing. Expected 1-hop degree is density x the
  // radio disk (N * pi * r^2 / area); the table gets 2x headroom. Raising
  // only (never lowering) the default matters: the bucket count steers
  // unordered-map iteration order, which feeds hello payload order, so
  // paper-scale scenarios (degree << default) must keep the exact default
  // the pinned goldens were recorded with. City-scale densities that
  // genuinely exceed it have no pinned goldens and take the derived size.
  const double expectedDegree =
      static_cast<double>(cfg.numNodes) * std::numbers::pi * cfg.radius *
      cfg.radius / (cfg.areaWidth * cfg.areaHeight);
  const auto derivedNeighbors =
      static_cast<std::size_t>(std::ceil(2.0 * expectedDegree));
  if (cfg.neighborEvictAfterFactor > 0.0) {
    // Scale mode (bounded tables) has no pinned goldens — its results are
    // validated by the in-bench A/B matrix instead — so the table can take
    // the exact derived size; at paper densities that is ~5x fewer buckets
    // per node than the legacy default.
    hello.expectedNeighbors = std::max<std::size_t>(derivedNeighbors, 4);
  } else {
    hello.expectedNeighbors =
        std::max(hello.expectedNeighbors, derivedNeighbors);
  }
  // A node never usefully holds more copies than the workload creates;
  // +16 covers in-flight custody branches.
  const std::size_t copiesHint =
      std::min(cfg.storageLimit,
               static_cast<std::size_t>(std::max(cfg.numMessages, 0)) + 16);

  switch (cfg.protocol) {
    case Protocol::kGlr: {
      core::GlrParams p;
      p.expectedBufferedCopies = copiesHint;
      p.checkInterval = cfg.checkInterval;
      p.cacheTimeout = cfg.cacheTimeout;
      p.custodyTransfer = cfg.custody;
      p.faceRouting = cfg.faceRouting;
      p.copiesOverride = cfg.copiesOverride;
      p.network.numNodes = static_cast<std::size_t>(cfg.numNodes);
      p.network.radius = cfg.radius;
      p.network.areaWidth = cfg.areaWidth;
      p.network.areaHeight = cfg.areaHeight;
      p.locationMode = cfg.locationMode;
      p.storageLimit = cfg.storageLimit;
      p.locationEvictAfter = cfg.locationEvictAfter;
      p.destinationIds = cfg.trafficNodes;
      p.custodyWatermark = cfg.custodyWatermark;
      p.congestionControl = cfg.congestionControl;
      p.recovery = cfg.glrRecovery;
      p.suspicionThreshold = cfg.glrSuspicionThreshold;
      p.recoveryAfterFailures = cfg.glrRecoveryAfterFailures;
      p.recoveryFanout = cfg.glrRecoveryFanout;
      p.recoveryCooldown = cfg.glrRecoveryCooldown;
      p.suspicionTtl = cfg.glrSuspicionTtl;
      p.messageTtl = cfg.messageTtl;
      hello.includeNeighborList = true;  // 2-hop knowledge for the LDTG
      p.hello = hello;
      return sharedParamsFactory<core::GlrAgent>(std::move(p));
    }
    case Protocol::kEpidemic: {
      routing::EpidemicParams p;
      p.expectedBufferedCopies = copiesHint;
      p.storageLimit = cfg.storageLimit;
      p.messageTtl = cfg.messageTtl;
      hello.includeNeighborList = false;
      p.hello = hello;
      return sharedParamsFactory<routing::EpidemicAgent>(std::move(p));
    }
    case Protocol::kDirectDelivery: {
      routing::DirectParams p;
      p.expectedBufferedCopies = copiesHint;
      p.storageLimit = cfg.storageLimit;
      p.checkInterval = cfg.checkInterval;
      hello.includeNeighborList = false;
      p.hello = hello;
      return sharedParamsFactory<routing::DirectDeliveryAgent>(std::move(p));
    }
    case Protocol::kSprayAndWait: {
      routing::SprayWaitParams p;
      p.expectedBufferedCopies = copiesHint;
      p.copyBudget = cfg.sprayBudget;
      p.storageLimit = cfg.storageLimit;
      p.messageTtl = cfg.messageTtl;
      hello.includeNeighborList = false;
      p.hello = hello;
      return sharedParamsFactory<routing::SprayWaitAgent>(std::move(p));
    }
  }
  throw std::invalid_argument{"agentFactory: unknown protocol"};
}

/// The periodic snapshot writer, itself a simulated event
/// (kCheckpointTimer), so checkpointEvery is part of the config digest and
/// of the deterministic sequence. It reschedules FIRST, so the snapshot it
/// then writes already contains the next timer — a restored run keeps
/// checkpointing on the same cadence. With checkpointPath empty the timer
/// still fires (keeping eventsExecuted identical to a writing run of the
/// same config) but writes nothing.
class CheckpointTimer final : public sim::EventSink {
 public:
  CheckpointTimer(const ScenarioConfig& cfg,
                  const ckpt::ScenarioComponents& comps)
      : cfg_(cfg), comps_(comps) {}

  void onEvent(const sim::EventDesc& desc) override {
    comps_.sim->schedule(cfg_.checkpointEvery, *this, desc);
    if (!cfg_.checkpointPath.empty()) {
      ckpt::writeCheckpoint(cfg_.checkpointPath, comps_);
    }
  }

 private:
  const ScenarioConfig& cfg_;
  const ckpt::ScenarioComponents& comps_;
};

}  // namespace

ChurnSpec churnPreset(const std::string& name) {
  ChurnSpec c;
  if (name == "none") return c;
  c.enabled = true;
  if (name == "light") {
    c.params.fraction = 0.25;
    c.params.upMean = 240.0;
    c.params.downMean = 20.0;
  } else if (name == "moderate") {
    c.params.fraction = 0.5;
    c.params.upMean = 120.0;
    c.params.downMean = 30.0;
  } else if (name == "heavy") {
    c.params.fraction = 0.8;
    c.params.upMean = 60.0;
    c.params.downMean = 45.0;
  } else {
    throw std::invalid_argument{"churnPreset: unknown preset '" + name + "'"};
  }
  return c;
}

ScenarioResult runScenario(const ScenarioConfig& cfg) {
  if (cfg.numNodes < 2 || cfg.trafficNodes > cfg.numNodes) {
    throw std::invalid_argument{"runScenario: bad node counts"};
  }
  if (!(cfg.radiusSpreadMin > 0.0) ||
      cfg.radiusSpreadMax < cfg.radiusSpreadMin) {
    throw std::invalid_argument{
        "runScenario: need 0 < radiusSpreadMin <= radiusSpreadMax"};
  }
  if (!cfg.checkpointPath.empty() && !(cfg.checkpointEvery > 0.0)) {
    throw std::invalid_argument{
        "runScenario: checkpointPath set but checkpointEvery is not positive"};
  }
  const auto wallStart = std::chrono::steady_clock::now();
  // The spanner's route-check count is thread-local: start it at zero so
  // it counts this run alone.
  spanner::resetLocalSpannerCache();

  sim::Rng master{cfg.seed};
  sim::Simulator simulator;
  if (cfg.kernelQueue == KernelQueue::kCalendar) {
    simulator.setQueueMode(sim::Simulator::QueueMode::kCalendar);
  }
  // Pre-size the event slab and far tier from the population: the
  // pending-event peak is a few events per node (hello + check + custody
  // timers) with a measured ~1.5k floor at paper scale, so 4096 covers small
  // runs and the per-node term keeps city-scale bursts from reallocating
  // mid-run. The near tier holds only events due within kNearHorizon, a
  // dozen MAC events in steady state; its peak is the t=0 burst of one
  // start event per node.
  const auto nodes = static_cast<std::size_t>(cfg.numNodes);
  simulator.reserve(std::max<std::size_t>(4096, nodes * 4), nodes);
  if (cfg.wallDeadlineSeconds > 0.0) {
    simulator.setWallDeadline(cfg.wallDeadlineSeconds);
  }
  phy::TwoRayGround model;
  phy::RadioParams radio;
  radio.nominalRange = cfg.radius;
  radio.bitRateBps = cfg.bitRateBps;
  mac::MacParams macParams;
  macParams.queueLimit = cfg.queueLimit;

  net::World world{simulator, model, radio, macParams};
  world.reserveNodes(static_cast<std::size_t>(cfg.numNodes));
  // Receiver lookups go through the spatial grid; candidate sets are padded
  // by worst-case drift so results match the unindexed channel.
  world.enableSpatialIndex(cfg.speedMax, 0.5,
                           cfg.spatialIndex == SpatialIndexMode::kTiled
                               ? mac::Channel::IndexMode::kTiled
                               : mac::Channel::IndexMode::kSnapshot);
  dtn::MetricsCollector metrics;

  // Flight recorder: constructed (and installed on the World) before the
  // agent loop, because agents and their buffers cache the pointer at
  // construction. close() below finalizes the file before counters are
  // harvested.
  std::unique_ptr<trace::Recorder> recorder;
  if (!cfg.tracePath.empty()) {
    recorder = std::make_unique<trace::Recorder>(simulator, cfg.tracePath);
    world.setTraceRecorder(recorder.get());
    metrics.setTrace(recorder.get());
    // Ctrl-C / kill during a traced run finalizes the file before dying;
    // SIGKILL still truncates (salvage with `trace_inspect recover`).
    trace::Recorder::installSignalFinalize();
  }

  const mobility::Area area{cfg.areaWidth, cfg.areaHeight};

  // Mobility comes from the string-keyed registry. The spec's embedded
  // ModelParams goes to the factory verbatim; only the shared kinematics
  // and placement fields are overlaid from the scenario config here (the
  // one place they are authoritative). Cluster mobility draws its shared
  // home points from a dedicated stream before the node loop.
  mobility::ModelParams modelParams = cfg.mobility.params;
  modelParams.area = area;
  modelParams.speedMin = cfg.speedMin;
  modelParams.speedMax = cfg.speedMax;
  modelParams.pause = cfg.pause;
  std::vector<geom::Point2> clusterCenters;
  if (cfg.mobility.model == "cluster") {
    if (cfg.mobility.numClusters < 1) {
      throw std::invalid_argument{"runScenario: numClusters must be >= 1"};
    }
    sim::Rng clusterRng = master.fork(kClusters);
    clusterCenters.reserve(static_cast<std::size_t>(cfg.mobility.numClusters));
    for (int c = 0; c < cfg.mobility.numClusters; ++c) {
      clusterCenters.push_back(mobility::randomPosition(area, clusterRng));
    }
  }

  sim::Rng placementRng = master.fork(kPlacement);
  std::vector<routing::DtnAgent*> agents;
  const AgentFactory makeAgent = agentFactory(cfg);
  for (int i = 0; i < cfg.numNodes; ++i) {
    const geom::Point2 start = mobility::randomPosition(area, placementRng);
    if (!clusterCenters.empty()) {
      modelParams.home =
          clusterCenters[static_cast<std::size_t>(i) % clusterCenters.size()];
    }
    auto mob = mobility::makeMobilityModel(
        cfg.mobility.model, modelParams, start,
        master.fork(kMobility * 1000 + static_cast<std::uint64_t>(i)));
    world.addNode(std::move(mob),
                  master.fork(kMac * 1000 + static_cast<std::uint64_t>(i)));
    auto agent = makeAgent(
        world, i, &metrics,
        master.fork(kAgent * 1000 + static_cast<std::uint64_t>(i)));
    agents.push_back(agent.get());
    world.setAgent(i, std::move(agent));
  }

  // Heterogeneous radios: per-node transmit ranges from a dedicated stream.
  // The homogeneous default (1.0/1.0) skips the whole block, leaving the
  // channel untouched and the run bit-identical to the paper setup.
  if (cfg.radiusSpreadMin != 1.0 || cfg.radiusSpreadMax != 1.0) {
    sim::Rng radioRng = master.fork(kRadio);
    for (int i = 0; i < cfg.numNodes; ++i) {
      world.setNodeRadius(
          i, cfg.radius *
                 radioRng.uniform(cfg.radiusSpreadMin, cfg.radiusSpreadMax));
    }
  }

  // Node churn: duty-cycle toggles are simulator events owned by this
  // process object, which must live until the run completes.
  std::unique_ptr<net::ChurnProcess> churn;
  if (cfg.churn.enabled) {
    churn = std::make_unique<net::ChurnProcess>(world, cfg.churn.params,
                                                master.fork(kChurn));
    churn->start();
  }

  // Fault injection: like churn, the process object owns simulator events
  // (and the channel delivery filter) and must live until the run completes.
  std::unique_ptr<net::FaultProcess> faults;
  if (cfg.faults.enabled) {
    faults = std::make_unique<net::FaultProcess>(world, cfg.faults.params,
                                                 master.fork(kFaults));
    faults->start();
  }

  // Workload. The paper's fixed schedule draws from the historical kTraffic
  // stream (the draw sequence is pinned by every golden); the stochastic
  // models are generator processes on their own stream, so switching models
  // perturbs nothing else.
  std::unique_ptr<TrafficProcess> trafficProcess;
  if (cfg.traffic.model == "paper") {
    schedulePaperWorkload(simulator, agents, cfg.trafficNodes,
                          cfg.numMessages, cfg.trafficStart,
                          cfg.messageInterval, master.fork(kTraffic));
  } else {
    TrafficProcess::Params tp;
    tp.spec = cfg.traffic;
    tp.start = cfg.trafficStart;
    tp.horizon = cfg.simTime;
    tp.trafficNodes = cfg.trafficNodes;
    trafficProcess = std::make_unique<TrafficProcess>(
        simulator, agents, std::move(tp), master.fork(kTrafficModel));
    trafficProcess->start();
  }

  // Crash safety: the components a snapshot covers, and the periodic writer.
  ckpt::ScenarioComponents comps;
  comps.sim = &simulator;
  comps.world = &world;
  comps.cfg = &cfg;
  comps.agents = &agents;
  comps.metrics = &metrics;
  comps.churn = churn.get();
  comps.faults = faults.get();
  comps.traffic = trafficProcess.get();
  CheckpointTimer checkpointTimer{cfg, comps};
  if (cfg.checkpointEvery > 0.0) {
    comps.checkpointTimer = &checkpointTimer;
    if (cfg.restoreFrom.empty()) {
      simulator.schedule(cfg.checkpointEvery, checkpointTimer,
                         {.kind = ckpt::kCheckpointTimer});
    }
  }

  world.start();
  if (!cfg.restoreFrom.empty()) {
    ckpt::restoreCheckpoint(cfg.restoreFrom, comps);
  }
  simulator.run(cfg.simTime);

  ScenarioResult r;
  if (recorder != nullptr) {
    recorder->close();
    r.traceEventsRecorded = recorder->recordsWritten();
  }
  r.created = metrics.createdCount();
  r.delivered = metrics.deliveredCount();
  r.deliveryRatio = metrics.deliveryRatio();
  r.avgLatency = metrics.avgLatency();
  r.avgHops = metrics.avgHops();
  r.latencyP50 = metrics.latencySketch().quantile(0.50);
  r.latencyP90 = metrics.latencySketch().quantile(0.90);
  r.latencyP99 = metrics.latencySketch().quantile(0.99);
  r.latencyMin = metrics.latencyMoments().min();
  r.latencyMax = metrics.latencyMoments().max();
  r.latencyStddev = metrics.latencyMoments().stddev();
  r.duplicateDeliveries = metrics.duplicateDeliveries();

  stats::Summary peaks;
  routing::ProtocolCounters proto;
  for (const routing::DtnAgent* a : agents) {
    peaks.add(static_cast<double>(a->storagePeak()));
    a->harvestCounters(proto);
    r.bufferedAtEnd += a->storageUsed();
  }
#define GLR_HARVEST(field, resultField) r.resultField = proto.field;
  GLR_PROTOCOL_COUNTERS(GLR_HARVEST)
#undef GLR_HARVEST
  r.maxPeakStorage = peaks.max();
  r.avgPeakStorage = peaks.mean();

  // Adversary-layer accounting: every blackhole/greyhole discard and every
  // selfish refusal is counted at the model, so no adversarial loss is
  // silent. All zero (and the model absent) when no misbehaving fraction is
  // configured.
  if (faults != nullptr && faults->adversary() != nullptr) {
    const net::AdversaryModel::Counters& ac = faults->adversary()->counters();
    r.advBlackholeDrops = ac.blackholeDrops;
    r.advGreyholeDrops = ac.greyholeDrops;
    r.advSelfishRefusals = ac.selfishRefusals;
    r.advFlapTransitions = ac.flapTransitions;
  }

  for (int i = 0; i < cfg.numNodes; ++i) {
    const auto& ms = world.macOf(i).stats();
#define GLR_SUM(field, resultField) r.resultField += ms.field;
    GLR_MAC_COUNTERS(GLR_SUM)
#undef GLR_SUM
    r.macQueueAtEnd += world.macOf(i).queueLength();
  }
  r.collisions = world.channel().stats().collisions;
  r.airTimeSeconds = world.channel().stats().airTimeSeconds;
  r.faultFrameDrops = world.channel().stats().faultDrops;
  r.eventsExecuted = simulator.eventsExecuted();

  if (!cfg.nodeCountersPath.empty()) {
    exportNodeCounters(cfg.nodeCountersPath, world, agents);
  }

  r.wallSeconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wallStart)
                      .count();
  return r;
}

std::vector<ScenarioResult> runScenarioSeeds(ScenarioConfig cfg, int runs) {
  if (runs <= 0) return {};
  // Default Options: GLR_BENCH_THREADS / hardware_concurrency; the runner
  // itself never spawns more workers than there are cells.
  SweepRunner runner;
  return std::move(runner.run({cfg}, runs).front());
}

std::string_view firstMismatch(const ScenarioResult& a,
                               const ScenarioResult& b) {
  std::string_view mismatch;
  forEachResultField([&](const char* name, auto member) {
    if (mismatch.empty() && !(a.*member == b.*member)) mismatch = name;
  });
  return mismatch;
}

bool conservationHolds(const ScenarioResult& r) {
  std::uint64_t accounted = r.delivered + r.bufferedAtEnd + r.macQueueAtEnd +
                            r.bufferEvictions + r.expiredDrops +
                            r.advBlackholeDrops + r.advGreyholeDrops +
                            r.advSelfishRefusals;
#define GLR_ADD_LOSS(field, resultField) accounted += r.resultField;
  GLR_MAC_LOSSES(GLR_ADD_LOSS)
#undef GLR_ADD_LOSS
  return r.created <= accounted;
}

std::vector<double> metricAcross(const std::vector<ScenarioResult>& rs,
                                 double ScenarioResult::*field) {
  std::vector<double> out;
  out.reserve(rs.size());
  for (const auto& r : rs) out.push_back(r.*field);
  return out;
}

}  // namespace glr::experiment
