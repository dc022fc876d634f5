/// Ablation bench for GLR's design choices plus extension baselines.
/// Columns: delivery ratio, latency, hops, avg peak storage.
/// Rows:
///   * full GLR (Algorithm 1 copies, LDel(2) spanner, face routing, custody)
///   * copies fixed to 1 / 5 (vs Algorithm 1's choice)
///   * face routing disabled
///   * custody disabled
///   * baselines: epidemic, direct delivery, binary spray-and-wait
/// There is no spanner row: the paper's witness veto never fires on a
/// node's own 2-hop view (spanner/ldtg.hpp), so "without witnesses" is the
/// full GLR row again.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace glr::bench;

int main() {
  banner("GLR ablations and extension baselines (100 m, sparse regime)",
         "design-choice sensitivity; not a paper table");

  const int runs = defaultRuns();
  struct Row {
    std::string name;
    std::function<void(ScenarioConfig&)> tweak;
  };
  const std::vector<Row> rows = {
      {"GLR (full)           ", [](ScenarioConfig&) {}},
      {"GLR copies=1         ",
       [](ScenarioConfig& c) { c.copiesOverride = 1; }},
      {"GLR copies=5         ",
       [](ScenarioConfig& c) { c.copiesOverride = 5; }},
      {"GLR no face routing  ",
       [](ScenarioConfig& c) { c.faceRouting = false; }},
      {"GLR no custody       ", [](ScenarioConfig& c) { c.custody = false; }},
      {"Epidemic             ",
       [](ScenarioConfig& c) { c.protocol = Protocol::kEpidemic; }},
      {"Direct delivery      ",
       [](ScenarioConfig& c) { c.protocol = Protocol::kDirectDelivery; }},
      {"Spray-and-wait (L=8) ",
       [](ScenarioConfig& c) { c.protocol = Protocol::kSprayAndWait; }},
  };

  std::vector<ScenarioConfig> grid;
  for (const Row& row : rows) {
    ScenarioConfig cfg = benchConfig(Protocol::kGlr, 100.0);
    row.tweak(cfg);
    grid.push_back(cfg);
  }
  const std::vector<Agg> aggs = sweepAgg(grid, runs, "ablation");

  std::printf(
      "\nvariant               | ratio  | latency (s)   | hops        | avg "
      "peak storage\n");
  std::printf(
      "----------------------+--------+---------------+-------------+--------"
      "---------\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Agg& a = aggs[i];
    std::printf("%s | %-6s | %-13s | %-11s | %s\n", rows[i].name.c_str(),
                fmtPct(a.ratio.mean).c_str(), fmtCI(a.latency, 1).c_str(),
                fmtCI(a.hops, 1).c_str(), fmtCI(a.avgPeak, 1).c_str());
  }
  std::printf(
      "\nReading guide: copies=1 in the sparse regime should cost latency;\n"
      "no-face should cost delivery/latency around voids; no-custody should\n"
      "cost delivery ratio; direct delivery bounds storage from below and\n"
      "latency from above.\n");
  return 0;
}
