#include "result.hpp"

#include <sched.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "sampler.hpp"

#ifndef GLRBENCH_COMMIT
#define GLRBENCH_COMMIT "unknown"
#endif
#ifndef GLRBENCH_BUILD_TYPE
#define GLRBENCH_BUILD_TYPE "unknown"
#endif
#ifndef GLRBENCH_CXX_FLAGS
#define GLRBENCH_CXX_FLAGS ""
#endif

#if defined(__SANITIZE_ADDRESS__)
#define GLRBENCH_SANITIZER "address"
#elif defined(__SANITIZE_THREAD__)
#define GLRBENCH_SANITIZER "thread"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GLRBENCH_SANITIZER "address"
#elif __has_feature(thread_sanitizer)
#define GLRBENCH_SANITIZER "thread"
#elif __has_feature(memory_sanitizer)
#define GLRBENCH_SANITIZER "memory"
#endif
#endif
#ifndef GLRBENCH_SANITIZER
#define GLRBENCH_SANITIZER "none"
#endif

namespace glrbench {
namespace {

constexpr bool kLower = false;
constexpr bool kHigher = true;

std::string cpuModel() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double loadAverage() {
  std::ifstream in{"/proc/loadavg"};
  double one = -1.0;
  in >> one;
  return one;
}

const char* compilerVersion() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

constexpr bool kNdebug =
#ifdef NDEBUG
    true;
#else
    false;
#endif
constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

}  // namespace

const std::vector<MetricSpec>& endToEndSpecs() {
  // A bound is three times the largest quartile spread (as a share of the
  // median) measured over ten seeds on the calibration host, rounded up to
  // a multiple of 0.05 and capped at 0.25, the widest BENCHMARK.json takes
  // (README, "Bounds"). Timings spread up to 16% there, so they take the
  // cap; set-up must carry the largest bound anyway; resident memory
  // spreads under 3%. Simulated outputs are deterministic per seed, so any
  // change to them at equal seeds is a change in behaviour.
  static const std::vector<MetricSpec> kSpecs = {
      {"wall_s", "s", kLower, 0.25, 0.0},
      {"events_per_s", "events/s", kHigher, 0.25, 0.0},
      {"setup_s", "s", kLower, 0.25, 0.01},
      {"peak_rss_mb", "MB", kLower, 0.1, 2.0},
      {"failed_share", "ratio", kLower, 0.0, 0.0},
      {"delivery_ratio", "ratio", kHigher, 0.0, 0.0},
      {"latency_p50_s", "s", kLower, 0.0, 0.0},
      {"latency_p90_s", "s", kLower, 0.0, 0.0},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& perLayerSpecs() {
  static const std::vector<MetricSpec> kSpecs = [] {
    std::vector<MetricSpec> s;
    for (const char* layer : kLayers) {
      s.push_back({std::string{layer} + ".self_s", "s", kLower});
    }
    for (const char* layer : kLayers) {
      s.push_back({std::string{layer} + ".setup_s", "s", kLower});
    }
    const std::vector<MetricSpec> rest = {
        {"profile.wall_s", "s", kLower},
        {"profile.samples", "count", kHigher},
        {"profile.setup_samples", "count", kHigher},
        {"profile.overhead_share", "ratio", kLower},
        {"profile.unattributed_share", "ratio", kLower},
        {"sim.events", "count", kLower},
        {"mac.data_tx", "count", kLower},
        {"mac.collisions", "count", kLower},
        {"mac.busy_deferrals", "count", kLower},
        {"mac.ack_timeouts", "count", kLower},
        {"mac.queue_drops", "count", kLower},
        {"mac.air_time_s", "s", kLower},
        {"spanner.computations", "count", kLower},
        {"spanner.memo_hits", "count", kHigher},
        {"spanner.memo_hit_ratio", "ratio", kHigher},
        {"core.data_sent", "count", kLower},
        {"core.custody_acks_sent", "count", kLower},
        {"core.custody_refusals", "count", kLower},
        {"core.cache_timeouts", "count", kLower},
        {"dtn.created", "count", kHigher},
        {"dtn.delivered", "count", kHigher},
        {"dtn.buffer_evictions", "count", kLower},
        {"dtn.send_rejects", "count", kLower},
        {"dtn.max_peak_storage", "count", kLower},
        {"dtn.delivery_ratio", "ratio", kHigher},
        {"dtn.latency_p50_s", "s", kLower},
        {"dtn.latency_p90_s", "s", kLower},
        {"experiment.speedup_vs_serial", "x", kHigher},
        {"experiment.pool_busy_share", "ratio", kHigher},
        {"experiment.cell_wall_p50_s", "s", kLower},
        {"experiment.cell_wall_max_s", "s", kLower},
        {"trace.overhead_share", "ratio", kLower},
        {"trace.records", "count", kLower},
        {"checkpoint.bytes", "bytes", kLower},
        {"checkpoint.overhead_share", "ratio", kLower},
        {"checkpoint.restore_s", "s", kLower},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return kSpecs;
}

CpuTimes readCpuTimes() {
  std::ifstream in{"/proc/stat"};
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

unsigned usableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::size_t peakRssBytes() {
  std::ifstream in{"/proc/self/status"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return 0;
}

bool releaseBuild(std::string* why) {
  const char* defect = nullptr;
  if (std::strcmp(GLRBENCH_BUILD_TYPE, "Release") != 0) {
    defect = "build type is not Release";
  } else if (!kOptimized) {
    defect = "built without optimization";
  } else if (!kNdebug) {
    defect = "built without NDEBUG";
  } else if (std::strcmp(GLRBENCH_SANITIZER, "none") != 0 ||
             std::strstr(GLRBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    defect = "sanitized build";
  }
  if (defect != nullptr && why != nullptr) *why = defect;
  return defect == nullptr;
}

void Result::set(const std::string& name, double value, std::size_t samples) {
  const auto& specs = mode == "trace" ? perLayerSpecs() : endToEndSpecs();
  for (const MetricSpec& spec : specs) {
    if (spec.name != name) continue;
    for (Value& v : metrics) {
      if (v.spec == &spec) {
        v = {&spec, value, samples};
        return;
      }
    }
    metrics.push_back({&spec, value, samples});
    return;
  }
  throw std::logic_error{"undeclared metric " + name};
}

void Result::fail(const std::string& why) {
  ++failed;
  failures.push_back(why);
  std::fprintf(stderr, "glrbench: FAILED: %s\n", why.c_str());
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  // Shortest text that reads back as exactly `v`.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return {buf, res.ptr};
}

void writeResult(const Result& r, const std::string& path,
                 const CpuTimes& start) {
  const auto& specs = r.mode == "trace" ? perLayerSpecs() : endToEndSpecs();
  std::vector<const Result::Value*> ordered;
  for (const MetricSpec& spec : specs) {
    const Result::Value* found = nullptr;
    for (const Result::Value& v : r.metrics) {
      if (v.spec == &spec) found = &v;
    }
    if (found == nullptr) {
      throw std::logic_error{"metric " + spec.name + " was never measured"};
    }
    ordered.push_back(found);
  }

  const CpuTimes end = readCpuTimes();
  const double steal =
      end.total > start.total
          ? static_cast<double>(end.steal - start.steal) /
                static_cast<double>(end.total - start.total)
          : 0.0;
  std::string invalidReason;
  const bool valid = releaseBuild(&invalidReason);

  std::printf("\n%-30s %14s  %-9s %7s\n", "metric", "value", "unit",
              "samples");
  for (const Result::Value* v : ordered) {
    std::printf("%-30s %14.6g  %-9s %7zu\n", v->spec->name.c_str(), v->value,
                v->spec->unit.c_str(), v->samples);
  }
  std::printf("runs attempted %zu, failed %zu; steal share %.4f%s%s\n",
              r.attempted, r.failed, steal, valid ? "" : "; INVALID: ",
              invalidReason.c_str());

  std::ostringstream o;
  o << "{\n  \"schema\": \"glrbench/1\",\n"
    << "  \"mode\": " << jsonString(r.mode) << ",\n"
    << "  \"workload\": " << jsonString(r.workload) << ",\n"
    << "  \"seed\": " << r.seed << ",\n"
    << "  \"seconds\": " << jsonNumber(r.seconds) << ",\n"
    << "  \"quick\": " << (r.quick ? "true" : "false") << ",\n"
    << "  \"valid\": " << (valid ? "true" : "false") << ",\n"
    << "  \"invalid_reason\": " << jsonString(invalidReason) << ",\n"
    << "  \"correct\": " << (r.failed == 0 ? "true" : "false") << ",\n"
    << "  \"attempted\": " << r.attempted << ",\n"
    << "  \"failed\": " << r.failed << ",\n"
    << "  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    o << (i ? ", " : "") << jsonString(r.failures[i]);
  }
  o << "],\n"
    << "  \"host\": {\"nproc\": " << usableCpus()
    << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << jsonString(cpuModel())
    << ", \"compiler\": " << jsonString(compilerVersion())
    << ", \"build_type\": " << jsonString(GLRBENCH_BUILD_TYPE)
    << ", \"cxx_flags\": " << jsonString(GLRBENCH_CXX_FLAGS)
    << ", \"ndebug\": " << (kNdebug ? "true" : "false")
    << ", \"optimize\": " << (kOptimized ? "true" : "false")
    << ", \"sanitizer\": " << jsonString(GLRBENCH_SANITIZER)
    << ", \"commit\": " << jsonString(GLRBENCH_COMMIT) << "},\n"
    << "  \"noise\": {\"steal_share\": " << jsonNumber(steal)
    << ", \"loadavg_1m\": " << jsonNumber(loadAverage()) << "},\n"
    << "  \"metrics\": {";
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    const Result::Value& v = *ordered[i];
    o << (i ? ",\n" : "\n") << "    " << jsonString(v.spec->name)
      << ": {\"value\": " << jsonNumber(v.value)
      << ", \"unit\": " << jsonString(v.spec->unit) << ", \"better\": "
      << (v.spec->higherIsBetter ? "\"higher\"" : "\"lower\"")
      << ", \"bound\": "
      << (v.spec->bound == kNoBound ? std::string{"null"}
                                    : jsonNumber(v.spec->bound))
      << ", \"floor\": " << jsonNumber(v.spec->floor)
      << ", \"samples\": " << v.samples << "}";
  }
  o << "\n  }";
  if (!r.details.empty()) o << ",\n" << r.details;
  o << "\n}\n";

  std::ofstream out{path, std::ios::trunc};
  out << o.str();
  out.close();
  if (!out) throw std::runtime_error{"cannot write " + path};
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace glrbench
