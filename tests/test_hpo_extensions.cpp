// Extension-library tests: successive halving and the baselines.
#include <gtest/gtest.h>

#include "hpo/baseline.hpp"
#include "hpo/hyperband.hpp"

namespace chpo::hpo {
namespace {

SearchSpace tiny_space() {
  return SearchSpace::from_json_text(R"({
    "optimizer": ["Adam", "SGD"],
    "batch_size": [16, 32]
  })");
}

rt::RuntimeOptions thread_cluster(unsigned cpus = 4) {
  rt::RuntimeOptions opts;
  cluster::NodeSpec node;
  node.name = "t";
  node.cpus = cpus;
  opts.cluster = cluster::homogeneous(1, node);
  return opts;
}

TEST(SuccessiveHalving, RungsShrinkAndBudgetsGrow) {
  const ml::Dataset dataset = ml::make_mnist_like(100, 40, 1);
  rt::Runtime runtime(thread_cluster());
  HalvingOptions options;
  options.initial_configs = 9;
  options.initial_epochs = 1;
  options.eta = 3.0;
  options.max_epochs = 9;
  const SearchSpace space = tiny_space();
  const HalvingOutcome outcome = successive_halving(runtime.main_study(), dataset, space, options);

  ASSERT_GE(outcome.rungs.size(), 2u);
  EXPECT_EQ(outcome.rungs[0].trials.size(), 9u);
  EXPECT_EQ(outcome.rungs[1].trials.size(), 3u);
  EXPECT_EQ(outcome.rungs[0].epochs, 1);
  EXPECT_EQ(outcome.rungs[1].epochs, 3);
  EXPECT_GT(outcome.best_accuracy, 0.0);
  EXPECT_TRUE(outcome.best_config.is_object());
}

TEST(SuccessiveHalving, SurvivorsAreTopOfPreviousRung) {
  const ml::Dataset dataset = ml::make_mnist_like(100, 40, 2);
  rt::Runtime runtime(thread_cluster());
  HalvingOptions options;
  options.initial_configs = 6;
  options.initial_epochs = 1;
  options.eta = 2.0;
  options.max_epochs = 4;
  const SearchSpace space = tiny_space();
  const HalvingOutcome outcome = successive_halving(runtime.main_study(), dataset, space, options);
  ASSERT_GE(outcome.rungs.size(), 2u);
  // Worst accuracy advancing to rung 1 >= best accuracy eliminated at rung 0.
  double worst_advanced = 1.0;
  for (const Trial& t : outcome.rungs[0].trials) {
    // Find whether this config advanced.
    bool advanced = false;
    for (const Trial& next : outcome.rungs[1].trials) {
      Config stripped_next = next.config;
      stripped_next.set("num_epochs", t.config.at("num_epochs"));
      if (json::serialize(stripped_next) == json::serialize(t.config)) advanced = true;
    }
    if (advanced) worst_advanced = std::min(worst_advanced, t.result.final_val_accuracy);
  }
  EXPECT_GT(worst_advanced, 0.0);
}

TEST(SuccessiveHalving, RespectsMaxEpochsCeiling) {
  const ml::Dataset dataset = ml::make_mnist_like(60, 20, 3);
  rt::Runtime runtime(thread_cluster());
  HalvingOptions options;
  options.initial_configs = 8;
  options.initial_epochs = 2;
  options.eta = 2.0;
  options.max_epochs = 4;
  const SearchSpace space = tiny_space();
  const HalvingOutcome outcome = successive_halving(runtime.main_study(), dataset, space, options);
  for (const RungResult& rung : outcome.rungs) EXPECT_LE(rung.epochs, 4);
}

TEST(SuccessiveHalving, InvalidOptionsThrow) {
  const ml::Dataset dataset = ml::make_mnist_like(20, 10, 4);
  rt::Runtime runtime(thread_cluster());
  const SearchSpace space = tiny_space();
  HalvingOptions bad;
  bad.initial_configs = 0;
  EXPECT_THROW(successive_halving(runtime.main_study(), dataset, space, bad), std::invalid_argument);
  bad.initial_configs = 4;
  bad.eta = 1.0;
  EXPECT_THROW(successive_halving(runtime.main_study(), dataset, space, bad), std::invalid_argument);
  bad.eta = 2.0;
  bad.initial_epochs = 0;
  EXPECT_THROW(successive_halving(runtime.main_study(), dataset, space, bad), std::invalid_argument);
}

TEST(Hyperband, RunsAllBracketsAndFindsGoodConfig) {
  const ml::Dataset dataset = ml::make_mnist_like(100, 40, 7);
  rt::Runtime runtime(thread_cluster());
  const SearchSpace space = tiny_space();
  HyperbandOptions options;
  options.max_epochs = 9;
  options.eta = 3.0;
  const HyperbandOutcome outcome = hyperband(runtime.main_study(), dataset, space, options);
  // s_max = floor(log3(9)) = 2 -> 3 brackets.
  EXPECT_EQ(outcome.brackets.size(), 3u);
  EXPECT_GT(outcome.total_trials, 9u);
  EXPECT_GT(outcome.best_accuracy, 0.0);
  EXPECT_TRUE(outcome.best_config.is_object());
  // The most exploratory bracket starts with the most configs.
  EXPECT_GE(outcome.brackets[0].rungs[0].trials.size(),
            outcome.brackets[2].rungs[0].trials.size());
  // The last bracket runs configs straight at full budget.
  EXPECT_EQ(outcome.brackets[2].rungs[0].epochs, 9);
}

TEST(Hyperband, ExactPowerBudgetRunsEveryBracket) {
  // R = 243 = 3^5: s_max is 5, so 6 brackets. A floating-point
  // floor(log R / log eta) reads 4.999... there and drops one.
  const ml::Dataset dataset = ml::make_mnist_like(20, 10, 10);
  rt::RuntimeOptions runtime_options = thread_cluster();
  runtime_options.simulate = true;
  rt::Runtime runtime(std::move(runtime_options));
  HyperbandOptions options;
  options.max_epochs = 243;
  options.eta = 3.0;
  options.driver.epoch_cap = 1;
  // 611 trials: a one-unit hidden layer keeps each one cheap.
  const SearchSpace space = SearchSpace::from_json_text(R"({
    "optimizer": ["Adam", "SGD"],
    "hidden_units": [1]
  })");
  const HyperbandOutcome outcome = hyperband(runtime.main_study(), dataset, space, options);
  ASSERT_EQ(outcome.brackets.size(), 6u);
  EXPECT_EQ(outcome.brackets[0].rungs[0].epochs, 1);
  EXPECT_EQ(outcome.brackets[5].rungs[0].epochs, 243);
}

TEST(Hyperband, InvalidOptionsThrow) {
  const ml::Dataset dataset = ml::make_mnist_like(20, 10, 8);
  rt::Runtime runtime(thread_cluster());
  const SearchSpace space = tiny_space();
  HyperbandOptions bad;
  bad.max_epochs = 0;
  EXPECT_THROW(hyperband(runtime.main_study(), dataset, space, bad), std::invalid_argument);
  bad.max_epochs = 9;
  bad.eta = 1.0;
  EXPECT_THROW(hyperband(runtime.main_study(), dataset, space, bad), std::invalid_argument);
}

TEST(VisualisePipeline, PlotTaskCollectsAllTrials) {
  // The paper's Figure 2 structure: experiment -> visualisation -> plot.
  const ml::Dataset dataset = ml::make_mnist_like(80, 30, 9);
  rt::Runtime runtime(thread_cluster());
  DriverOptions options;
  options.epoch_cap = 2;
  options.visualise = true;
  HpoDriver driver(runtime.main_study(), dataset, options);
  const SearchSpace space = tiny_space();
  GridSearch grid(space);
  const HpoOutcome outcome = driver.run(grid);
  ASSERT_EQ(outcome.trials.size(), 4u);
  EXPECT_FALSE(outcome.report.empty());
  // One report line per trial plus the header.
  EXPECT_EQ(std::count(outcome.report.begin(), outcome.report.end(), '\n'), 5);
  EXPECT_NE(outcome.report.find("optimizer"), std::string::npos);
  // The graph contains experiment, visualisation and plot tasks:
  // 4 + 4 + 1 = 9.
  EXPECT_EQ(runtime.task_count(), 9u);
  EXPECT_EQ(runtime.graph().critical_path_length(), 3u);
}

TEST(VisualisePipeline, FailedTrialExcludedFromPlot) {
  const ml::Dataset dataset = ml::make_mnist_like(60, 20, 10);
  rt::RuntimeOptions rt_options = thread_cluster();
  rt_options.fault_policy.max_attempts = 1;
  rt_options.injector.force_task_failures(0, 1);  // first experiment dies
  rt::Runtime runtime(std::move(rt_options));
  DriverOptions options;
  options.epoch_cap = 1;
  options.visualise = true;
  HpoDriver driver(runtime.main_study(), dataset, options);
  const SearchSpace space = tiny_space();
  GridSearch grid(space);
  const HpoOutcome outcome = driver.run(grid);
  EXPECT_TRUE(outcome.trials[0].failed);
  EXPECT_FALSE(outcome.report.empty());
  // Plot holds the three surviving trials only.
  EXPECT_EQ(std::count(outcome.report.begin(), outcome.report.end(), '\n'), 4);
}

TEST(Baseline, SequentialMatchesDriverResults) {
  // The runtime must produce the same result as a plain serial loop — the
  // paper's "same result as if executed sequentially" guarantee.
  const ml::Dataset dataset = ml::make_mnist_like(100, 40, 5);
  const SearchSpace space = tiny_space();
  const auto configs = space.enumerate_grid();

  DriverOptions options;
  options.epoch_cap = 2;
  options.seed = 17;
  const HpoOutcome serial = sequential_hpo(dataset, configs, options);

  rt::Runtime runtime(thread_cluster());
  HpoDriver driver(runtime.main_study(), dataset, options);
  GridSearch grid(space);
  const HpoOutcome parallel = driver.run(grid);

  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (std::size_t i = 0; i < serial.trials.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.trials[i].result.final_val_accuracy,
                     parallel.trials[i].result.final_val_accuracy)
        << "trial " << i;
  }
  EXPECT_EQ(serial.best_index, parallel.best_index);
}

TEST(Baseline, SequentialEarlyStop) {
  const ml::Dataset dataset = ml::make_mnist_like(200, 60, 6);
  const SearchSpace space = tiny_space();
  DriverOptions options;
  options.epoch_cap = 2;
  options.stop_on_accuracy = 0.2;
  const HpoOutcome outcome = sequential_hpo(dataset, space.enumerate_grid(), options);
  EXPECT_TRUE(outcome.stopped_early);
  EXPECT_LT(outcome.trials.size(), 4u);
}

TEST(Baseline, AnalyticMakespans) {
  const SearchSpace space = SearchSpace::from_json_text(R"({
    "optimizer": ["SGD"],
    "num_epochs": [20, 50, 100],
    "batch_size": [32]
  })");
  const auto configs = space.enumerate_grid();
  const ml::WorkloadModel w = ml::mnist_paper_model();
  const auto node = cluster::marenostrum4_node();

  const double serial = sequential_makespan_seconds(configs, w, 1, node);
  const double split2 = static_partition_seconds(configs, w, 2, 1, node);
  const double split3 = static_partition_seconds(configs, w, 3, 1, node);
  EXPECT_GT(serial, split2);
  EXPECT_GE(split2, split3);
  // 3 nodes, one task each: makespan = the longest task.
  EXPECT_DOUBLE_EQ(split3, ml::experiment_seconds(w, "SGD", 100, 32, 1, 0, node));
  // Contiguous blocks on 3 nodes also end at the longest task here, and can
  // never beat round-robin by more than the block imbalance allows.
  const double blocks3 = static_partition_contiguous_seconds(configs, w, 3, 1, node);
  EXPECT_DOUBLE_EQ(blocks3, split3);
}

TEST(Baseline, StaticPartitionNeverBeatsPerfectBalance) {
  const SearchSpace space = SearchSpace::from_json_text(R"({
    "optimizer": ["SGD", "Adam"],
    "num_epochs": [20, 50, 100],
    "batch_size": [32, 128]
  })");
  const auto configs = space.enumerate_grid();
  const ml::WorkloadModel w = ml::mnist_paper_model();
  const auto node = cluster::marenostrum4_node();
  const double serial = sequential_makespan_seconds(configs, w, 1, node);
  const double split4 = static_partition_seconds(configs, w, 4, 1, node);
  EXPECT_GE(split4, serial / 4.0);  // can't beat the work bound
  EXPECT_LE(split4, serial);
}

}  // namespace
}  // namespace chpo::hpo
