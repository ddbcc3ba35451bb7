#include "hpo/algorithms.hpp"

#include <algorithm>
#include <stdexcept>

#include "hpo/tpe.hpp"

namespace chpo::hpo {

GridSearch::GridSearch(const SearchSpace& space) : configs_(space.enumerate_grid()) {}

std::optional<Config> GridSearch::next() {
  if (cursor_ >= configs_.size()) return std::nullopt;
  return configs_[cursor_++];
}

RandomSearch::RandomSearch(const SearchSpace& space, std::size_t n, std::uint64_t seed)
    : space_(space), remaining_(n), rng_(seed) {
  if (n == 0) throw std::invalid_argument("RandomSearch: n must be positive");
}

std::optional<Config> RandomSearch::next() {
  if (remaining_ == 0) return std::nullopt;
  --remaining_;
  return space_.sample(rng_);
}

GpBayesOpt::GpBayesOpt(const SearchSpace& space, Options options)
    : space_(space), options_(options), rng_(options.seed) {
  if (options_.max_evals == 0) throw std::invalid_argument("GpBayesOpt: max_evals must be positive");
  if (options_.n_init == 0) options_.n_init = 1;
}

std::optional<Config> GpBayesOpt::next() {
  if (issued_ >= options_.max_evals) return std::nullopt;
  ++issued_;

  if (ys_.size() < options_.n_init) return space_.sample(rng_);

  GaussianProcess gp(options_.lengthscale, 1.0, options_.noise);
  gp.fit(xs_, ys_);
  const double best = *std::max_element(ys_.begin(), ys_.end());

  Config best_candidate = space_.sample(rng_);
  double best_ei = -1.0;
  for (std::size_t i = 0; i < options_.n_candidates; ++i) {
    Config candidate = space_.sample(rng_);
    const auto prediction = gp.predict(space_.encode(candidate));
    const double ei = expected_improvement(prediction.mean, prediction.variance, best);
    if (ei > best_ei) {
      best_ei = ei;
      best_candidate = std::move(candidate);
    }
  }
  return best_candidate;
}

void GpBayesOpt::tell(const Config& config, double score) {
  xs_.push_back(space_.encode(config));
  ys_.push_back(score);
}

std::unique_ptr<SearchAlgorithm> make_search_algorithm(const std::string& name,
                                                       const SearchSpace& space,
                                                       std::size_t budget, std::uint64_t seed) {
  if (name == "grid") return std::make_unique<GridSearch>(space);
  if (name == "random") return std::make_unique<RandomSearch>(space, budget, seed);
  if (name == "gp")
    return std::make_unique<GpBayesOpt>(space,
                                        GpBayesOpt::Options{.max_evals = budget, .seed = seed});
  if (name == "tpe")
    return std::make_unique<TpeSearch>(space, TpeSearch::Options{.max_evals = budget, .seed = seed});
  throw std::invalid_argument("make_search_algorithm: unknown algorithm '" + name +
                              "' (grid | random | gp | tpe)");
}

}  // namespace chpo::hpo
