// Hot-path guarantees: the epoch position cache is bit-identical to asking
// the mobility models directly (for every registered model, under repeated
// same-time queries and radio churn), the steady-state beaconing / MAC /
// channel path and the route check's knowledge + spanner star perform zero
// heap allocations, and whole scenarios repeat bit-identically, the warm
// runs of the golden, saturated and traced cells inside their allocation
// budgets (counted by overriding the global allocator in this binary).

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <future>
#include <string>
#include <vector>

#include "closure_sink.hpp"
#include "experiment/runner.hpp"
#include "experiment/scenario.hpp"
#include "geometry/delaunay.hpp"
#include "mobility/mobility.hpp"
#include "mobility/registry.hpp"
#include "net/neighbor.hpp"
#include "net/world.hpp"
#include "phy/propagation.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

// Every allocation in this binary bumps one relaxed counter, and every
// allocation and release moves a live-byte count (by the allocator's usable
// size of the block, so both directions agree) whose high-water mark the
// idle-memory pin reads. Replacement operator new/delete must not be
// inline, so they are defined here, in the binary's one translation unit.
// They forward to malloc/free, so under ASan a new/delete mismatch in this
// binary goes unreported (heap errors are still caught).
namespace {

std::atomic<long long> gAllocs{0};
std::atomic<long long> gLiveBytes{0};
std::atomic<long long> gPeakLiveBytes{0};

void* noteAlloc(void* p) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<long long>(malloc_usable_size(p));
  const long long live =
      gLiveBytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  long long peak = gPeakLiveBytes.load(std::memory_order_relaxed);
  while (live > peak && !gPeakLiveBytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* countedAlloc(std::size_t n) {
  if (void* p = std::malloc(n == 0 ? 1 : n)) return noteAlloc(p);
  throw std::bad_alloc{};
}

void* countedAlignedAlloc(std::size_t n, std::size_t align) {
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align)) {
    return noteAlloc(p);
  }
  throw std::bad_alloc{};
}

void countedFree(void* p) noexcept {
  if (p == nullptr) return;
  gLiveBytes.fetch_sub(static_cast<long long>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}

long long allocCount() { return gAllocs.load(std::memory_order_relaxed); }

/// Restarts the live-byte high-water mark at the current live bytes, which
/// it returns.
long long resetPeakLiveBytes() {
  const long long live = gLiveBytes.load(std::memory_order_relaxed);
  gPeakLiveBytes.store(live, std::memory_order_relaxed);
  return live;
}

long long peakLiveBytes() {
  return gPeakLiveBytes.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t n) { return countedAlloc(n); }
void* operator new[](std::size_t n) { return countedAlloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return countedAlignedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { countedFree(p); }
void operator delete[](void* p) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { countedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { countedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  countedFree(p);
}

namespace {

using glr::experiment::bitIdenticalIgnoringWall;
using glr::experiment::KernelQueue;
using glr::experiment::Protocol;
using glr::experiment::runScenario;
using glr::experiment::ScenarioConfig;
using glr::experiment::ScenarioResult;
using glr::experiment::SpatialIndexMode;

using glr::geom::Point2;
using glr::mac::MacParams;
using glr::mobility::ModelParams;
using glr::net::NeighborService;
using glr::net::Packet;
using glr::net::World;
using glr::phy::RadioParams;
using glr::phy::TwoRayGround;
using glr::sim::Rng;
using glr::sim::SimTime;
using glr::sim::Simulator;

// ---------------------------------------------------------------------------
// Epoch position cache vs. direct mobility queries.
// ---------------------------------------------------------------------------

/// One node per registered mobility model in a World, and an identically
/// seeded reference model per node outside it. World::positionOf must match
/// the reference at every query — including repeated queries at one time
/// (served from the cache) and across radio churn.
TEST(PositionCache, MatchesDirectQueriesForAllRegisteredModels) {
  const auto names = glr::mobility::mobilityModelNames();
  ASSERT_FALSE(names.empty());

  Simulator sim;
  TwoRayGround model;
  RadioParams radio;
  World world{sim, model, radio, MacParams{}};

  ModelParams params;
  params.area = {1000.0, 500.0};
  params.speedMin = 1.0;
  params.speedMax = 15.0;
  params.pause = 0.5;
  params.home = {400.0, 250.0};

  std::vector<std::unique_ptr<glr::mobility::MobilityModel>> reference;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Point2 start{100.0 + 50.0 * static_cast<double>(i), 200.0};
    const Rng rng{1000 + i};
    world.addNode(
        glr::mobility::makeMobilityModel(names[i], params, start, rng),
        Rng{2000 + i});
    reference.push_back(
        glr::mobility::makeMobilityModel(names[i], params, start, rng));
  }

  // Non-decreasing query schedule with duplicate times; every event queries
  // the world twice (second hit must come from the cache) and the reference
  // once per event (a same-time re-query must be an identity for every
  // model — the property the cache rests on).
  const std::vector<SimTime> times = {0.0, 0.0,  0.4, 1.1, 1.1, 1.1, 2.7,
                                      5.0, 5.0,  8.3, 12.9, 12.9, 20.0};
  glr::test::ClosureSink events{sim};
  for (const SimTime t : times) {
    events.scheduleAt(t, [&world, &reference, &names] {
      for (std::size_t i = 0; i < names.size(); ++i) {
        const Point2 direct =
            reference[i]->positionAt(world.sim().now());
        const Point2 first = world.positionOf(static_cast<int>(i));
        const Point2 second = world.positionOf(static_cast<int>(i));
        EXPECT_EQ(first, direct) << names[i];
        EXPECT_EQ(second, direct) << names[i] << " (cached re-query)";
      }
    });
  }
  // Churn mid-epoch: radio state must not perturb positions or the cache.
  events.scheduleAt(6.0, [&world] { world.setRadioUp(1, false); });
  events.scheduleAt(10.0, [&world] { world.setRadioUp(1, true); });
  sim.run();
  EXPECT_EQ(sim.now(), 20.0);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state for the beaconing / MAC / channel path.
// ---------------------------------------------------------------------------

/// Minimal agent that runs only the neighbor service (the paper's IMEP-like
/// hello layer) — the traffic every scenario pays for continuously.
class BeaconAgent final : public glr::net::Agent,
                          public NeighborService::Owner {
 public:
  BeaconAgent(World& world, int self, NeighborService::Params params)
      : world_(world),
        self_(self),
        service_(world.sim(), world.macOf(self), self, *this, params,
                 Rng{700 + static_cast<std::uint64_t>(self)}) {}

  void start() override { service_.start(); }
  void onPacket(const Packet& p, int from) override {
    service_.handlePacket(p, from);
  }
  Point2 helloPosition() override { return world_.positionOf(self_); }

  const NeighborService& service() const { return service_; }

 private:
  World& world_;
  int self_;
  NeighborService service_;
};

TEST(ZeroAllocSteadyState, BeaconingMacChannelPathDoesNotTouchTheAllocator) {
  Simulator sim;
  sim.reserve(1024, 64);
  TwoRayGround model;
  RadioParams radio;
  radio.nominalRange = 250.0;
  World world{sim, model, radio, MacParams{}};

  // A line of static nodes 150 m apart: every node has 2-6 hello neighbors,
  // the topology (and thus table/buffer sizes) is in steady state once all
  // tables are warm.
  constexpr int kNodes = 12;
  for (int i = 0; i < kNodes; ++i) {
    world.addNode(std::make_unique<glr::mobility::StaticMobility>(
                      Point2{150.0 * i, 0.0}),
                  Rng{900 + static_cast<std::uint64_t>(i)});
  }
  NeighborService::Params params;
  params.helloInterval = 0.25;  // dense beaconing: many cycles per second
  params.expiry = 0.75;
  for (int i = 0; i < kNodes; ++i) {
    world.setAgent(i, std::make_unique<BeaconAgent>(world, i, params));
  }
  world.start();

  // Warm-up: tables fill, rings/slabs/arenas grow to their working set.
  sim.run(30.0);

  const long long before = allocCount();
  sim.run(60.0);
  const long long delta = allocCount() - before;
  EXPECT_EQ(delta, 0)
      << "steady-state beaconing allocated " << delta
      << " times in 30 sim-seconds; the hello/MAC/channel hot path must be "
         "allocation-free (payload arenas, ring deques, epoch cache)";
}

/// The route check's per-node geometry: gathering a node's 2-hop knowledge
/// into a reused vector and computing its Delaunay star. Once the buffers
/// and per-thread tables have grown, neither touches the allocator.
TEST(ZeroAllocSteadyState, KnowledgeAndStarReuseTheirBuffers) {
  Simulator sim;
  sim.reserve(1024, 64);
  TwoRayGround model;
  RadioParams radio;
  radio.nominalRange = 250.0;
  World world{sim, model, radio, MacParams{}};

  // A jittered 4x4 grid, 120 m apart: general position, 2-hop views of up
  // to the whole grid.
  constexpr int kNodes = 16;
  Rng jitter{31};
  for (int i = 0; i < kNodes; ++i) {
    world.addNode(std::make_unique<glr::mobility::StaticMobility>(
                      Point2{120.0 * (i % 4) + jitter.uniform(-20, 20),
                             120.0 * (i / 4) + jitter.uniform(-20, 20)}),
                  Rng{900 + static_cast<std::uint64_t>(i)});
  }
  std::vector<const BeaconAgent*> agents;
  for (int i = 0; i < kNodes; ++i) {
    auto agent =
        std::make_unique<BeaconAgent>(world, i, NeighborService::Params{});
    agents.push_back(agent.get());
    world.setAgent(i, std::move(agent));
  }
  world.start();
  sim.run(5.0);

  std::vector<glr::spanner::KnownNode> known;
  std::vector<Point2> view;
  std::vector<int> star;
  std::size_t starEdges = 0;
  const auto routeCheckGeometry = [&] {
    for (int i = 0; i < kNodes; ++i) {
      agents[static_cast<std::size_t>(i)]->service().knowledge(known);
      view.assign(1, world.positionOf(i));
      for (const auto& kn : known) view.push_back(kn.pos);
      ASSERT_TRUE(glr::geom::Delaunay::starInto(star, view)) << "node " << i;
      starEdges += star.size();
    }
  };
  routeCheckGeometry();  // warm: buffers and tables grow to the working set

  long long allocs = 0;
  for (int step = 1; step <= 10; ++step) {
    sim.run(5.0 + step);
    const long long before = allocCount();
    routeCheckGeometry();
    allocs += allocCount() - before;
  }
  EXPECT_GT(starEdges, 0u);
  EXPECT_EQ(allocs, 0) << "knowledge + star allocated " << allocs
                       << " times over 10 warm rounds of " << kNodes
                       << " route checks";
}

// ---------------------------------------------------------------------------
// Warm-run allocation budgets on whole scenarios.
// ---------------------------------------------------------------------------

/// Paper Table 1 GLR, scaled down: the quick mode of glrbench's `golden`.
ScenarioConfig goldenCell() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.radius = 100.0;
  cfg.seed = 7;
  cfg.simTime = 120.0;
  cfg.numMessages = 60;
  return cfg;
}

/// Poisson load past the saturation knee with finite storage, custody
/// watermark and the AIMD custody window all engaged (refusal acks, sender
/// backoff, evictions): the quick mode of glrbench's `saturated`.
ScenarioConfig saturatedCell() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.traffic.model = "poisson";
  cfg.congestionControl = true;
  cfg.numNodes = 16;
  cfg.trafficNodes = 14;
  cfg.radius = 150.0;
  cfg.simTime = 90.0;
  cfg.storageLimit = 16;
  cfg.traffic.rate = 30.0;
  cfg.custodyWatermark = cfg.storageLimit / 2;
  return cfg;
}

/// Epidemic floods under moderate churn on the Manhattan grid: the heaviest
/// buffers and the churn event paths.
ScenarioConfig worstMatrixCell() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kEpidemic;
  cfg.mobility.model = "manhattan";
  cfg.churn = glr::experiment::churnPreset("moderate");
  cfg.radius = 150.0;
  cfg.numMessages = 30;
  cfg.simTime = 200.0;
  return cfg;
}

struct ColdWarm {
  ScenarioResult warm;
  long long coldAllocs = 0;
  long long warmAllocs = 0;
};

/// Runs `cfg` twice in a row; the repeat must be bit-identical to the first.
ColdWarm runColdWarm(const char* name, const ScenarioConfig& cfg) {
  SCOPED_TRACE(name);
  const long long t0 = allocCount();
  const ScenarioResult cold = runScenario(cfg);
  const long long t1 = allocCount();
  ColdWarm r{runScenario(cfg), t1 - t0, 0};
  r.warmAllocs = allocCount() - t1;
  EXPECT_TRUE(bitIdenticalIgnoringWall(cold, r.warm));
  return r;
}

/// Each cell runs cold, then warm, with the counting allocator installed.
/// Payload arenas and builder scratch persist per thread, so a warm run
/// allocates only for state of its own: buffers, metrics and each node's
/// hello list blocks. A budget's slack over the measured count (golden
/// ~86.7k, saturated ~67.7k: 52 and 16 fewer than when each neighbor table
/// was a hash map, whose node per neighbor cost what a vector grown one
/// entry at a time does; 100 and 32 more than when agents built their
/// counter blocks and location tables up front, as a block built on first
/// use costs one allocation per agent that uses it; a hundred fewer before
/// MAC queue rings started at one slot; ~105k and ~113k before route
/// checks reused their progress candidates and receivers shared hello
/// lists) absorbs stdlib variance, not regressions. Only a thread's first
/// scenario warms those per-thread buffers, so golden runs on a newly
/// started thread, whose cold run is cold whatever ran before it in this
/// process, and only golden must allocate strictly less when warm.
TEST(ZeroAllocSteadyState, RepeatScenarioAllocatesLessThanColdRun) {
  const ColdWarm golden =
      std::async(std::launch::async,
                 [] { return runColdWarm("golden", goldenCell()); })
          .get();
  EXPECT_LT(golden.warmAllocs, golden.coldAllocs);
  EXPECT_LE(golden.warmAllocs, 250000);
  EXPECT_LE(runColdWarm("saturated", saturatedCell()).warmAllocs, 250000);
  runColdWarm("worst", worstMatrixCell());  // bit-identity only
}

/// Tracing on: the flight recorder allocates only itself and its fixed
/// write batch at construction — recording tens of thousands of events
/// adds nothing. A warm traced run may therefore allocate only a
/// small constant more than a warm untraced run, and the simulation outcome
/// must be untouched by observation.
TEST(ZeroAllocSteadyState, TracingOnAllocatesOnlyTheFixedRecorderSetup) {
  ScenarioConfig cfg = goldenCell();
  const ColdWarm untraced = runColdWarm("untraced", cfg);
  const std::string tracePath = "test_hotpath_trace.bin";
  cfg.tracePath = tracePath;
  ColdWarm traced = runColdWarm("traced", cfg);
  std::remove(tracePath.c_str());

  EXPECT_GT(traced.warm.traceEventsRecorded, 1000u);
  // Fixed recorder setup: the recorder and its batch vector. Generously
  // 256 allocations — but NOT proportional to the event count, which is
  // what this pin is about.
  EXPECT_LE(traced.warmAllocs, untraced.warmAllocs + 256)
      << "tracing-on run allocated "
      << traced.warmAllocs - untraced.warmAllocs
      << " more than tracing-off; the record() hot path must stay "
         "allocation-free (batch reserved at construction)";
  EXPECT_LE(traced.warmAllocs, 251000);

  // Observation must not perturb the simulation.
  traced.warm.traceEventsRecorded = 0;
  EXPECT_TRUE(bitIdenticalIgnoringWall(traced.warm, untraced.warm));
}

// ---------------------------------------------------------------------------
// Idle-node memory.
// ---------------------------------------------------------------------------

// Sanitizers replace the allocator and pad every block, so the pin below is
// only meaningful in plain builds (bench_scale's idle ceiling skips the
// same way).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define GLR_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define GLR_TEST_SANITIZED 1
#endif
#endif
#ifndef GLR_TEST_SANITIZED
#define GLR_TEST_SANITIZED 0
#endif

/// glrbench's `city` cell at a quarter of its population: constant paper
/// density, 45 traffic nodes (whose traffic starts after the horizon, so
/// every node is an idle relay), the tiled receiver index, the calendar
/// queue and bounded tables.
ScenarioConfig idleCityCell() {
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kGlr;
  cfg.radius = 100.0;
  const int nodes = 5000;
  const double lin = std::sqrt(static_cast<double>(nodes) / cfg.numNodes);
  cfg.areaWidth *= lin;
  cfg.areaHeight *= lin;
  cfg.numNodes = nodes;
  cfg.trafficNodes = 45;
  cfg.simTime = 5.0;
  cfg.numMessages = 60;
  cfg.kernelQueue = KernelQueue::kCalendar;
  cfg.spatialIndex = SpatialIndexMode::kTiled;
  cfg.neighborEvictAfterFactor = 2.0;
  cfg.locationEvictAfter = 15.0;
  cfg.seed = 7;
  return cfg;
}

/// The peak live heap of a city-shaped world, per node: the whole per-node
/// footprint (agent, MAC and its queue ring, mobility, neighbor table,
/// hello lists, kernel slab and channel state) of a node that only
/// beacons. The cell runs on a newly started thread, so its per-thread
/// arenas and scratch grow inside the measurement whatever ran before it.
/// Measured with g++ 12.2 and glibc malloc (usable block sizes): 4,608
/// B/node when every receiver copied each hello's neighbor list and idle
/// buffers, MAC parameters and closures were built per node; 3,618 B/node
/// with shared lists and those structures shared or built on first use;
/// 2,696 B/node once MAC queue rings started at one slot, the MAC kept
/// duplicate entries for unicast senders only and the calendar wheel
/// pooled its records; 2,236 B/node once the MAC kept one transmit-end
/// time instead of a 16-slot history and agents built their counter
/// blocks and location tables on first use; 2,074 B/node once each
/// neighbor table became one id-ordered vector grown one entry at a time
/// instead of a hash map with a node per neighbor. The budget leaves ~7%
/// of slack over the latter.
TEST(IdleNodeMemory, CityCellPeakHeapPerNodeWithinBudget) {
  if (GLR_TEST_SANITIZED != 0) {
    GTEST_SKIP() << "sanitizer allocators pad every block";
  }
  const ScenarioConfig cfg = idleCityCell();
  const double bytesPerNode =
      std::async(std::launch::async, [&cfg] {
        const long long before = resetPeakLiveBytes();
        (void)runScenario(cfg);
        return static_cast<double>(peakLiveBytes() - before) /
               static_cast<double>(cfg.numNodes);
      }).get();
  std::printf("idle city cell: %.0f peak heap bytes per node\n",
              bytesPerNode);
  EXPECT_LE(bytesPerNode, 2220.0);
}

}  // namespace
