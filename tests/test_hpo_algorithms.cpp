// Search-algorithm tests: grid exhaustion, random reproducibility, GP-EI
// optimisation behaviour on a known objective.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "hpo/algorithms.hpp"

namespace chpo::hpo {
namespace {

SearchSpace listing1_space() {
  return SearchSpace::from_json_text(R"({
    "optimizer": ["Adam", "SGD", "RMSprop"],
    "num_epochs": [20, 50, 100],
    "batch_size": [32, 64, 128]
  })");
}

TEST(MakeSearchAlgorithm, BuildsEveryPointSearchByName) {
  const SearchSpace space = listing1_space();
  for (const char* name : {"grid", "random", "gp", "tpe"})
    EXPECT_NE(make_search_algorithm(name, space, 4, 1), nullptr) << name;
  EXPECT_THROW(make_search_algorithm("simulated-annealing", space, 4, 1), std::invalid_argument);
}

TEST(Grid, DrainsExactlyTheCrossProduct) {
  const SearchSpace space = listing1_space();
  GridSearch grid(space);
  EXPECT_EQ(grid.total(), 27u);
  std::set<std::string> seen;
  while (auto c = grid.next()) seen.insert(json::serialize(*c));
  EXPECT_EQ(seen.size(), 27u);
  EXPECT_FALSE(grid.next().has_value());  // stays exhausted
  EXPECT_FALSE(grid.sequential());
}

TEST(Random, ProducesRequestedCount) {
  const SearchSpace space = listing1_space();
  RandomSearch random(space, 10, 42);
  int count = 0;
  while (random.next()) ++count;
  EXPECT_EQ(count, 10);
}

TEST(Random, SeedReproducible) {
  const SearchSpace space = listing1_space();
  RandomSearch a(space, 5, 7), b(space, 5, 7), c(space, 5, 8);
  bool all_same = true, any_diff_seed = false;
  for (int i = 0; i < 5; ++i) {
    const auto ca = a.next(), cb = b.next(), cc = c.next();
    all_same = all_same && (json::serialize(*ca) == json::serialize(*cb));
    any_diff_seed = any_diff_seed || (json::serialize(*ca) != json::serialize(*cc));
  }
  EXPECT_TRUE(all_same);
  EXPECT_TRUE(any_diff_seed);
}

TEST(Random, ZeroBudgetRejected) {
  const SearchSpace space = listing1_space();
  EXPECT_THROW(RandomSearch(space, 0, 1), std::invalid_argument);
}

TEST(GpEi, RespectsEvaluationBudget) {
  const SearchSpace space = listing1_space();
  GpBayesOpt bo(space, {.max_evals = 8, .n_init = 3, .seed = 1});
  int issued = 0;
  while (auto c = bo.next()) {
    bo.tell(*c, 0.5);
    ++issued;
  }
  EXPECT_EQ(issued, 8);
  EXPECT_TRUE(bo.sequential());
}

TEST(GpEi, FindsOptimumOfSmoothObjective) {
  // Maximise -(lr - 0.3)^2 over a 1-D continuous space: GP-EI should get
  // much closer to 0.3 than plain random with the same tiny budget.
  SearchSpace space;
  space.add_float("lr", 0.0, 1.0);
  const auto objective = [](const Config& c) {
    const double lr = config_double(c, "lr");
    return -(lr - 0.3) * (lr - 0.3);
  };

  GpBayesOpt::Options options;
  options.max_evals = 20;
  options.n_init = 5;
  options.seed = 11;
  GpBayesOpt bo(space, options);
  double best_bo = -1e9;
  while (auto c = bo.next()) {
    const double y = objective(*c);
    best_bo = std::max(best_bo, y);
    bo.tell(*c, y);
  }
  EXPECT_GT(best_bo, -0.003);  // |lr - 0.3| < ~0.055
}

TEST(GpEi, ModelPhaseReachesTheOptimumRegion) {
  SearchSpace space;
  space.add_float("x", 0.0, 1.0);
  const auto objective = [](double x) { return -(x - 0.7) * (x - 0.7); };

  GpBayesOpt bo(space, {.max_evals = 25, .n_init = 5, .seed = 3});
  double best = -1e9;
  while (auto c = bo.next()) {
    const double y = objective(config_double(*c, "x"));
    best = std::max(best, y);
    bo.tell(*c, y);
  }
  // 25 evaluations must land within |x - 0.7| < 0.1 of the optimum.
  EXPECT_GT(best, -0.01);
}

TEST(GpEi, WorksOnMixedCategoricalSpace) {
  const SearchSpace space = listing1_space();
  GpBayesOpt bo(space, {.max_evals = 12, .n_init = 4, .seed = 5});
  // Objective favours SGD with many epochs.
  int issued = 0;
  while (auto c = bo.next()) {
    double y = config_string(*c, "optimizer") == "SGD" ? 0.5 : 0.1;
    y += static_cast<double>(config_int(*c, "num_epochs")) / 1000.0;
    bo.tell(*c, y);
    ++issued;
  }
  EXPECT_EQ(issued, 12);
  EXPECT_EQ(bo.observations(), 12u);
}

TEST(GpEi, ZeroBudgetRejected) {
  const SearchSpace space = listing1_space();
  EXPECT_THROW(GpBayesOpt(space, {.max_evals = 0}), std::invalid_argument);
}

}  // namespace
}  // namespace chpo::hpo
