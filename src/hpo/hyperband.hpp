// Successive halving — the multi-fidelity extension of the future-work
// library.
//
// Starts `n` configurations at a small epoch budget, keeps the top 1/eta by
// validation accuracy, multiplies the budget by eta, and repeats. Every
// rung is a batch of independent experiment tasks, so each rung is as
// embarrassingly parallel as the paper's grid search and runs through the
// same Runtime.
#pragma once

#include <optional>
#include <vector>

#include "hpo/driver.hpp"
#include "hpo/search_space.hpp"
#include "ml/dataset.hpp"
#include "reuse/planner.hpp"
#include "runtime/study_session.hpp"

namespace chpo::hpo {

struct HalvingOptions {
  std::size_t initial_configs = 27;
  int initial_epochs = 2;
  double eta = 3.0;     ///< keep top 1/eta per rung, multiply budget by eta
  int max_epochs = 54;  ///< budget ceiling
  DriverOptions driver;  ///< constraint / workload / seed shared with trials
};

struct RungResult {
  int rung = 0;
  int epochs = 0;
  std::vector<Trial> trials;  ///< all trials evaluated at this rung
};

struct HalvingOutcome {
  std::vector<RungResult> rungs;
  Config best_config;
  double best_accuracy = 0.0;
  double elapsed_seconds = 0.0;
  /// Set when HalvingOptions::driver.reuse is enabled: with deterministic
  /// seeds, each rung promotion resumes from the previous rung's cached
  /// epoch checkpoint instead of retraining from scratch.
  std::optional<reuse::ReuseReport> reuse;
};

/// Run successive halving over random samples of `space`: a one-bracket
/// hyperband. Like HpoDriver, halving runs through a StudySession (a
/// tagged view of a shared Runtime) — blocking convenience over the
/// HyperbandRun state machine in study_run.hpp.
HalvingOutcome successive_halving(rt::StudySession session, const ml::Dataset& dataset,
                                  const SearchSpace& space, const HalvingOptions& options);

/// Full Hyperband (Li et al. 2018): runs s_max+1 successive-halving
/// brackets trading off the number of configurations against the starting
/// epoch budget, from the most exploratory bracket (many configs, tiny
/// budget) to a single full-budget bracket.
struct HyperbandOptions {
  int max_epochs = 27;   ///< R: maximum epochs any config may receive
  double eta = 3.0;
  DriverOptions driver;
};

struct HyperbandOutcome {
  std::vector<HalvingOutcome> brackets;
  Config best_config;
  double best_accuracy = 0.0;
  double elapsed_seconds = 0.0;
  std::size_t total_trials = 0;
  /// Aggregated over all brackets (they share one ResultCache, so the
  /// cache stats here are cumulative and the tallies are summed).
  std::optional<reuse::ReuseReport> reuse;
};

HyperbandOutcome hyperband(rt::StudySession session, const ml::Dataset& dataset,
                           const SearchSpace& space, const HyperbandOptions& options);

/// The s_max+1 brackets hyperband runs, most exploratory first, where
/// s_max is the largest integer s with eta^s <= max_epochs. Throws
/// std::invalid_argument on a non-positive budget or eta <= 1.
std::vector<HalvingOptions> hyperband_plan(const HyperbandOptions& options);

}  // namespace chpo::hpo
