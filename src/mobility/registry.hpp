#pragma once
/// \file registry.hpp
/// String-keyed registry of pluggable mobility models.
///
/// The scenario layer (and its sweep grids) selects mobility by name, so a
/// mobility axis in a SweepRunner grid is just a vector of strings. The
/// built-ins — "static", "waypoint", "walk", "direction", "gauss_markov",
/// "manhattan", "cluster" — register themselves; embedders can add their own
/// models with registerMobilityModel (e.g. trace-driven or vehicular
/// mobility) without touching this library. The registry is guarded by a
/// mutex: scenarios constructed on SweepRunner worker threads look models up
/// concurrently.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mobility/mobility.hpp"

namespace glr::mobility {

/// The per-model knobs of ModelParams, K(type, name, default) each, in
/// declaration order (the scenario config digest walks this list). The
/// shared fields around them are overlaid per run by the scenario.
#define GLR_MOBILITY_MODEL_KNOBS(K)                                             \
  K(double, legDuration, 10.0)   /* walk: seconds per heading */                \
  K(double, updateInterval, 1.0) /* gauss_markov: refresh period (s) */         \
  K(double, alpha, 0.85)         /* gauss_markov: AR(1) memory in [0, 1] */     \
  K(double, meanSpeed, -1.0)     /* gauss_markov: mean speed (< 0: midpoint) */ \
  K(double, gridSpacing, 100.0)  /* manhattan: street spacing (m) */            \
  K(double, turnProb, 0.25)      /* manhattan: per-side turn probability */     \
  K(double, clusterStddev, 75.0) /* cluster: waypoint spread around home (m) */ \
  K(double, roamProb, 0.05)      /* cluster: chance of a uniform roam leg */

/// Parameter bundle a factory may draw from. Shared knobs (area, speeds,
/// pause) apply to every model; the rest are used only by the model whose
/// comment names them, so one bundle can configure a whole sweep axis.
struct ModelParams {
  Area area;
  double speedMin = 0.1;
  double speedMax = 20.0;
  double pause = 0.0;
#define GLR_FIELD(type, name, def) type name = def;
  GLR_MOBILITY_MODEL_KNOBS(GLR_FIELD)
#undef GLR_FIELD
  geom::Point2 home;  // cluster: this node's home point
};

using MobilityFactory = std::function<std::unique_ptr<MobilityModel>(
    const ModelParams& params, geom::Point2 start, sim::Rng rng)>;

/// Registers (or replaces) a model under `name`; returns true if `name` was
/// new. Factories must be thread-safe to *call* (they run on sweep workers).
bool registerMobilityModel(const std::string& name, MobilityFactory factory);

[[nodiscard]] bool isMobilityModelRegistered(const std::string& name);

/// Instantiates `name` with the given parameters, start position and RNG
/// stream. Throws std::invalid_argument for unknown names.
[[nodiscard]] std::unique_ptr<MobilityModel> makeMobilityModel(
    const std::string& name, const ModelParams& params, geom::Point2 start,
    sim::Rng rng);

/// Registered model names, sorted (stable axis order for sweeps/tests).
[[nodiscard]] std::vector<std::string> mobilityModelNames();

}  // namespace glr::mobility
