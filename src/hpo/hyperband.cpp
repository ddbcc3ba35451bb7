#include "hpo/hyperband.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "hpo/study_run.hpp"

namespace chpo::hpo {

HalvingOutcome successive_halving(rt::StudySession session, const ml::Dataset& dataset,
                                  const SearchSpace& space, const HalvingOptions& options) {
  HyperbandRun run(session, dataset, space, {options});
  drive_to_completion(session, run);
  return run.outcome().brackets.front();
}

HyperbandOutcome hyperband(rt::StudySession session, const ml::Dataset& dataset,
                           const SearchSpace& space, const HyperbandOptions& options) {
  HyperbandRun run(session, dataset, space, hyperband_plan(options));
  drive_to_completion(session, run);
  return run.outcome();
}

std::vector<HalvingOptions> hyperband_plan(const HyperbandOptions& options) {
  if (options.max_epochs <= 0) throw std::invalid_argument("hyperband: max_epochs must be positive");
  if (options.eta <= 1.0) throw std::invalid_argument("hyperband: eta must exceed 1");

  // Counted in exact products, not floor(log R / log eta): that quotient
  // rounds 5 down to 4.999... at R = 243, eta = 3 and loses a bracket.
  const double r_max = static_cast<double>(options.max_epochs);
  int s_max = 0;
  for (double budget = options.eta; budget <= r_max; budget *= options.eta) ++s_max;

  std::vector<HalvingOptions> plan;
  for (int s = s_max; s >= 0; --s) {
    // Bracket s: n = ceil((s_max+1)/(s+1) * eta^s) configs at
    // r = R / eta^s initial epochs.
    const double eta_s = std::pow(options.eta, s);
    HalvingOptions bracket;
    bracket.initial_configs = static_cast<std::size_t>(
        std::ceil(static_cast<double>(s_max + 1) / static_cast<double>(s + 1) * eta_s));
    bracket.initial_epochs = std::max(1, static_cast<int>(std::floor(r_max / eta_s)));
    bracket.eta = options.eta;
    bracket.max_epochs = options.max_epochs;
    bracket.driver = options.driver;
    bracket.driver.seed = options.driver.seed + static_cast<std::uint64_t>(s) * 7907ULL;
    plan.push_back(std::move(bracket));
  }
  return plan;
}

}  // namespace chpo::hpo
