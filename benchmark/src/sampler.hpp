#pragma once
/// \file sampler.hpp
/// Program-counter sampler that charges wall time to the simulator's
/// src/<module> layers, measured from outside the library.
///
/// A per-thread CLOCK_MONOTONIC timer sends SIGPROF to the sampled thread;
/// the handler unwinds the stack (_Unwind_Backtrace) only as far as the
/// innermost frame that belongs to a layer, and charges the sample to it. A function belongs to the
/// layer of its glr namespace (glr::geom splits into geometry.index for the
/// SpatialGrid/TiledSpatialGrid receiver indexes and geometry.delaunay for
/// the rest). Functions outside glr namespaces (std::, libc, the benchmark)
/// pass the sample to their caller, except lambda thunks: those have
/// internal linkage, so the translation unit that emitted them, and with
/// it the module that defines the lambda, is known from the symbol table.
/// Samples with no layer frame at all go to `runtime`.
///
/// Header-inline code is compiled into its caller, so it is charged to the
/// caller's layer.

#include <array>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

namespace glrbench {

inline constexpr std::array<const char*, 17> kLayers = {
    "sim",     "mac",     "phy",        "net",   "mobility",
    "geometry.delaunay",  "geometry.index",      "graph",
    "spanner", "core",    "routing",    "dtn",   "experiment",
    "stats",   "trace",   "checkpoint", "runtime"};
inline constexpr int kRuntimeLayer = static_cast<int>(kLayers.size()) - 1;
/// A function outside every layer: the sample passes to its caller.
inline constexpr int kNoLayer = -1;

/// Sampling rate. A sample costs ~2 us in the handler plus the signal's
/// delivery; 2 kHz keeps that to a few percent of wall and still gives ~10k
/// samples per workload.
inline constexpr int kSampleHz = 2000;

/// Address -> (function, layer) map of this executable, read from its own
/// .symtab.
class SymbolMap {
 public:
  struct Function {
    std::uintptr_t begin = 0;
    std::uintptr_t end = 0;
    int layer = kNoLayer;
    std::string mangled;
  };

  /// Reads /proc/self/exe and relocates by the PIE load bias. Throws
  /// std::runtime_error when the executable has no .symtab (stripped) or is
  /// not a well-formed 64-bit ELF file.
  [[nodiscard]] static SymbolMap loadSelf();

  /// The function containing `pc`, or null. Allocation-free, so it may run
  /// inside the signal handler.
  [[nodiscard]] const Function* find(std::uintptr_t pc) const;
  [[nodiscard]] std::size_t size() const { return fns_.size(); }
  [[nodiscard]] const Function& at(std::size_t i) const { return fns_[i]; }
  [[nodiscard]] std::size_t indexOf(const Function* f) const {
    return static_cast<std::size_t>(f - fns_.data());
  }
  /// Functions that belong to some layer (zero means symbolization did not
  /// find the simulator library).
  [[nodiscard]] std::size_t layeredCount() const;

 private:
  std::vector<Function> fns_;  // sorted by begin, non-overlapping
};

/// Samples the thread that calls start() until stop(), at kSampleHz. One
/// sampler may be armed per process at a time.
class Sampler {
 public:
  explicit Sampler(const SymbolMap& map);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start();
  void stop();

  [[nodiscard]] std::uint64_t samples() const;
  [[nodiscard]] std::uint64_t layerSamples(int layer) const {
    return layers_[static_cast<std::size_t>(layer)].load(
        std::memory_order_relaxed);
  }
  /// Samples charged to function i of the map.
  [[nodiscard]] std::uint32_t functionSamples(std::size_t i) const {
    return functions_[i].load(std::memory_order_relaxed);
  }
  /// Samples whose interrupted PC was missing from the unwound stack (the
  /// unwinder could not cross the signal frame); charged by PC alone.
  [[nodiscard]] std::uint64_t unwindMisses() const {
    return unwindMisses_.load(std::memory_order_relaxed);
  }

  /// Signal-handler entry; public only for the C handler.
  void onSignal(void* ucontext);

 private:
  void charge(int layer, const SymbolMap::Function* fn);

  const SymbolMap& map_;
  timer_t timer_{};
  bool armed_ = false;
  std::array<std::atomic<std::uint64_t>, kLayers.size()> layers_{};
  std::unique_ptr<std::atomic<std::uint32_t>[]> functions_;
  std::atomic<std::uint64_t> unwindMisses_{0};
};

/// Samples the calling thread for the lifetime of the scope, so a throw
/// cannot leave the timer armed.
class SamplingScope {
 public:
  explicit SamplingScope(Sampler& s) : s_(s) { s_.start(); }
  ~SamplingScope() { s_.stop(); }
  SamplingScope(const SamplingScope&) = delete;
  SamplingScope& operator=(const SamplingScope&) = delete;

 private:
  Sampler& s_;
};

/// Demangled name of a mangled symbol (the input when it does not demangle).
[[nodiscard]] std::string demangle(const std::string& mangled);

}  // namespace glrbench
