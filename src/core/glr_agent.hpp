#pragma once
/// \file glr_agent.hpp
/// The GLR (Geometric Localized Routing) protocol agent — the paper's
/// primary contribution, implementing Algorithms 1 and 2 plus the
/// supporting mechanisms of Sections 2.2–2.3:
///
///  * intelligent copy-count decision (Georgiou connectivity threshold);
///  * per-copy tree flags (MaxDSTD / MinDSTD / MidDSTD) routed greedily on
///    the locally constructed LDTG planar spanner;
///  * delay-tolerant store state with periodic route re-checks
///    (checkinterval, default 0.9 s as in the paper);
///  * face routing on the planar spanner at local minima;
///  * location diffusion through hello exchange and message headers, with
///    the stale-destination-location perturbation fix;
///  * custody transfer with Store/Cache areas, per-hop acknowledgements and
///    cache timeout rescheduling.

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/decision.hpp"
#include "dtn/location_table.hpp"
#include "routing/dtn_agent.hpp"

namespace glr::core {

/// How much of the destination's location is known a priori (Table 2).
enum class LocationMode {
  kOracleAll,    // every node always knows the true destination location
  kSourceKnows,  // source stamps the true location; relays rely on headers
                 // and diffusion (GLR's default assumption)
  kNoneKnow,     // source stamps a random guess; diffusion must correct it
};

struct GlrParams {
  double checkInterval = 0.9;  // paper's default route check interval
  double cacheTimeout = 10.0;  // custody wait before transfer rescheduling
  std::size_t custodyWindow = 16;  // max copies awaiting custody acks
  /// Buffer-pressure custody refusal: an incoming custody transfer is
  /// refused (NACK, retry-later) when this node's occupancy has reached the
  /// watermark, pushing queueing back to the sender instead of evicting
  /// held custody copies. 0 (default) never refuses — the historical
  /// behavior every golden was recorded under. Final delivery and
  /// duplicate merges are always accepted.
  std::size_t custodyWatermark = 0;
  /// Windowed congestion control on custody transfer: replaces the fixed
  /// custodyWindow with an AIMD window driven by a custody-ack RTT
  /// estimator (additive increase per acknowledged transfer, halving on
  /// timeout/refusal — the ndn-dpdk fetcher shape). Off by default.
  bool congestionControl = false;
  int maxSendsPerCheck = 8;        // per-node data-send budget per check
  double ackRetryDelay = 0.25;     // re-enqueue delay for queue-full acks
  int ackRetries = 3;
  /// Forward only to neighbors believed within guard*radius: beacon
  /// positions are stale (nodes move between hellos), and transmissions to
  /// edge-of-range neighbors fail after burning 8 MAC attempts. Mirrors the
  /// conservative link declaration of IMEP-style sensing.
  double sendRangeGuard = 0.85;
  bool custodyTransfer = true;
  bool faceRouting = true;
  int copiesOverride = -1;     // -1: Algorithm 1 decides
  int sparseCopies = 3;        // copies used when the network is sparse
  NetworkProfile network;      // inputs to Algorithm 1 + spanner radius
  LocationMode locationMode = LocationMode::kSourceKnows;
  double staleLocationAge = 30.0;      // header age before perturbation
  int stuckChecksBeforePerturb = 3;    // checks stuck before perturbation
  int maxFaceHops = 12;        // face-walk budget per entry
  double faceCooldown = 25.0;  // seconds before re-walking an exhausted face
  std::size_t storageLimit = dtn::kUnlimitedStorage;
  /// Buffer index pre-size hint (copies this node may hold at once),
  /// derived from the workload by the scenario driver; 0 = no hint.
  std::size_t expectedBufferedCopies = 0;
  std::size_t payloadBytes = 1000;     // paper Table 1
  std::size_t dataHeaderBytes = 40;    // GLR header on data packets
  std::size_t custodyAckBytes = 20;
  /// Steady-state bound on the location table for long/large runs:
  /// observations older than this many seconds are pruned at each periodic
  /// check. 0 (default) keeps every observation of a tracked id forever —
  /// the historical behavior the goldens were recorded under. The table is
  /// looked up only for a message's destination, so pruning is observable
  /// only when a later route check would have fallen back to one of these
  /// very stale positions.
  double locationEvictAfter = 0.0;
  /// Count of leading node ids that can be a message destination: hello
  /// location samples for ids >= this are not recorded (the table is only
  /// ever read for a destination) and originate() rejects such a
  /// destination. 0 (default) tracks and accepts every id. runScenario
  /// sets it from ScenarioConfig::trafficNodes; it is not a user knob.
  int destinationIds = 0;
  /// Message lifetime in seconds (0 = immortal, the historical default).
  /// Expired copies are dropped by a counted sweep at each periodic check
  /// (MessageBuffer::expireDue -> expiredDrops), never silently.
  double messageTtl = 0.0;
  /// Custody-transfer reliability sublayer (adversarial resilience; all off
  /// by default so every pinned golden stays bit-identical). `recovery`
  /// master-switches three mechanisms: (1) suspicion scoring — every
  /// custody round that ends in a cache timeout or refusal NACK charges the
  /// next hop one failure, and `suspicionThreshold` failures without an
  /// intervening accepted ack mark it suspect for `suspicionTtl` seconds
  /// (an accepted ack clears the score: a greyhole must keep re-earning its
  /// verdict); (2) reroute — suspect hops are excluded from the spanner
  /// candidate set of every route check (never from final delivery: the
  /// destination always gets its own traffic); (3) spray fallback — a copy
  /// whose failure score (custody failures + no-route checks) reaches
  /// `recoveryAfterFailures` is cloned, custody-free, to up to
  /// `recoveryFanout` non-suspect neighbors (at most once per
  /// `recoveryCooldown` per copy), bounded replication that jumps the copy
  /// out of a failing neighborhood while this node keeps custody of the
  /// original (ROADMAP item 5's recovery mode).
  bool recovery = false;
  int suspicionThreshold = 2;
  double suspicionTtl = 120.0;
  int recoveryAfterFailures = 3;
  int recoveryFanout = 2;
  double recoveryCooldown = 15.0;
  net::NeighborService::Params hello;
};

/// Custody acknowledgement payload (paper: contains source, destination,
/// message count and tree branch — exactly a CopyKey). `accepted == false`
/// turns it into a refusal (NACK): the receiver is above its buffer
/// watermark and the sender must keep custody and retry later.
struct CustodyAck {
  dtn::CopyKey key;
  bool accepted = true;
};

/// Packet kind tags.
inline constexpr const char* kGlrDataKind = "glr-data";
inline constexpr const char* kGlrAckKind = "glr-ack";

class GlrAgent final : public routing::AgentBase {
 public:
  /// Throws std::invalid_argument unless checkInterval > 0 (the periodic
  /// route check would otherwise reschedule itself at +0 s forever).
  GlrAgent(net::World& world, int self, GlrParams params,
           dtn::MetricsCollector* metrics, sim::Rng rng);

  /// Shared-parameter constructor: scenario drivers build one immutable
  /// GlrParams block and hand the same pointer to every agent, so a
  /// million-node world stores the configuration once instead of once per
  /// node. The by-value constructor above wraps into a private block and
  /// delegates here.
  GlrAgent(net::World& world, int self,
           std::shared_ptr<const GlrParams> params,
           dtn::MetricsCollector* metrics, sim::Rng rng);

  void start() override;
  void onPacket(const net::Packet& packet, int fromMac) override;
  void onTxStatus(const net::Packet& packet, int dstMac,
                  bool success) override;
  void originate(int dstNode) override;

  [[nodiscard]] const dtn::LocationTable& locationTable() const {
    return locations_;
  }
  /// Copies Algorithm 1 chooses for this agent's network profile.
  [[nodiscard]] int copyCount() const;

  /// Checkpoint support: AgentBase's state, then the location table, the
  /// suspicion ledger and the AIMD congestion state.
  void visit(ckpt::Encoder& ar) override;
  void visit(ckpt::Decoder& ar) override;
  /// Fires the periodic and queued route checks, custody-ack retries and
  /// custody timers (kGlrPeriodicCheck..kGlrCustodyTimer, see
  /// checkpoint/event_kinds.hpp) and passes every other kind to AgentBase.
  void onEvent(const sim::EventDesc& desc) override;

 private:
  /// The protocol's own checkpointed state, listed once for both archives.
  template <class Ar>
  void visitState(Ar& ar);

  /// Records a hello location sample of a possible destination.
  void onLocationSample(int id, geom::Point2 pos, sim::SimTime at) override;
  /// A new contact: clears stored copies' retry backoff and queues a route
  /// check.
  void onContact(int id) override;

  void periodicCheck();
  void checkRoutes();
  void sendCustodyAck(const dtn::CopyKey& key, int to, int attempt,
                      bool accepted = true);
  /// Effective custody window: fixed custodyWindow, or the AIMD cwnd when
  /// congestion control is on.
  [[nodiscard]] std::size_t custodyWindowNow() const;
  /// Custody retransmit timer: the fixed cacheTimeout, or an RFC-6298-style
  /// RTO from the custody-ack RTT estimator (clamped to [1 s, cacheTimeout])
  /// when congestion control is on.
  [[nodiscard]] double custodyTimeoutNow() const;
  void recordCustodyRtt(double sample);
  /// AIMD loss reaction: halve the window (custody timeout or refusal).
  void onCongestionSignal();
  /// Queues one copy to the MAC; returns true if it actually went out.
  bool sendCopy(const dtn::CopyKey& key, int nextHop);
  /// Custody timer body: fires custodyTimeoutNow() after a cached send;
  /// no-ops unless this exact custody round (matched by sentAt) is still
  /// outstanding.
  void onCustodyTimeout(const dtn::CopyKey& key, sim::SimTime sentAt);
  /// Contact/originate-triggered deferred route check (checkQueued_ gate).
  void onQueuedCheck();
  /// Resolves the destination position for a stored message, applying
  /// location diffusion in both directions. Returns false if nothing is
  /// known (only possible before any observation in kNoneKnow-less setups).
  bool resolveDestination(dtn::Message& m, geom::Point2& out);
  void handleData(const net::Packet& packet, int fromMac);
  void handleAck(const net::Packet& packet, int fromMac);
  void maybePerturbDestination(dtn::Message& m);
  /// Suspicion ledger (recovery sublayer): true while `id` carries an
  /// unexpired suspect verdict.
  [[nodiscard]] bool isSuspect(int id) const;
  /// Charges `hop` one custody failure (timeout or refusal NACK); crossing
  /// suspicionThreshold (re)marks it suspect for suspicionTtl seconds.
  void noteCustodyFailure(int hop);
  /// An accepted custody ack clears `hop`'s score and verdict.
  void noteCustodySuccess(int hop);
  /// Spray fallback: clones the copy, custody-free, to up to recoveryFanout
  /// non-suspect current neighbors; the original stays in the Store.
  void attemptRecovery(dtn::Message& m);

  /// Shared immutable parameter block: every agent in a scenario gets the
  /// same GlrParams, and at city scale a by-value copy per node (~232 B)
  /// is a measurable share of the idle-node budget — so one refcounted
  /// block serves the whole population.
  std::shared_ptr<const GlrParams> params_;
  dtn::LocationTable locations_;
  /// Per-next-hop custody failure scores and suspect verdicts, built at the
  /// first custody failure (never without params_->recovery).
  struct SuspectEntry {
    int failures = 0;
    sim::SimTime until = -1e18;  // verdict active while now < until
  };
  std::unique_ptr<std::unordered_map<int, SuspectEntry>> suspicion_;

  // AIMD congestion state (active only with params_->congestionControl):
  // slow start from a small window up to ssthresh_, then +1/cwnd per
  // acknowledged custody transfer; halved on timeout or refusal.
  double cwnd_ = 4.0;
  double ssthresh_ = 64.0;
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  bool haveRtt_ = false;
  bool checkQueued_ = false;  // suppress redundant contact-triggered checks
};

}  // namespace glr::core
