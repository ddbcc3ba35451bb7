// Tests for trial checkpointing: the file format and driver replay.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "hpo/algorithms.hpp"
#include "hpo/checkpoint.hpp"
#include "hpo/driver.hpp"
#include "runtime/runtime.hpp"

namespace chpo::hpo {
namespace {

constexpr const char* kSpace = R"({
  "optimizer": ["Adam", "SGD"],
  "num_epochs": [1, 2],
  "batch_size": [16]
})";

// ------------------------------------------------------------ checkpoint

struct CheckpointFixture : ::testing::Test {
  void SetUp() override { path = "/tmp/chpo_checkpoint_test.json"; std::remove(path.c_str()); }
  void TearDown() override { std::remove(path.c_str()); }
  std::string path;
};

Trial make_trial(int index, const char* optimizer, double accuracy) {
  Trial trial;
  trial.index = index;
  trial.config.set("optimizer", json::Value(optimizer));
  trial.config.set("num_epochs", json::Value(2));
  ml::EpochStats e1{.epoch = 1, .train_loss = 1.5, .train_accuracy = 0.4, .val_accuracy = 0.5};
  ml::EpochStats e2{.epoch = 2, .train_loss = 0.9, .train_accuracy = 0.7, .val_accuracy = accuracy};
  trial.result.history = {e1, e2};
  trial.result.final_val_accuracy = accuracy;
  trial.result.best_val_accuracy = accuracy;
  trial.result.epochs_run = 2;
  return trial;
}

TEST_F(CheckpointFixture, RoundTripPreservesTrials) {
  std::vector<Trial> trials{make_trial(0, "Adam", 0.8), make_trial(1, "SGD", 0.7)};
  Trial failed;
  failed.index = 2;
  failed.config.set("optimizer", json::Value("RMSprop"));
  failed.failed = true;
  failed.failure_reason = "node failure";
  trials.push_back(failed);

  save_checkpoint(path, trials);
  const std::vector<Trial> loaded = load_checkpoint(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_DOUBLE_EQ(loaded[0].result.final_val_accuracy, 0.8);
  EXPECT_EQ(loaded[0].result.history.size(), 2u);
  EXPECT_DOUBLE_EQ(loaded[0].result.history[1].train_loss, 0.9);
  EXPECT_EQ(json::serialize(loaded[1].config), json::serialize(trials[1].config));
  EXPECT_TRUE(loaded[2].failed);
  EXPECT_EQ(loaded[2].failure_reason, "node failure");
}

TEST_F(CheckpointFixture, MissingFileLoadsEmpty) {
  EXPECT_TRUE(load_checkpoint("/tmp/definitely_missing_checkpoint.json").empty());
}

TEST_F(CheckpointFixture, CorruptFileStartsFresh) {
  // A damaged checkpoint must never abort a run: it is logged and treated
  // as absent so the driver starts from scratch.
  {
    std::ofstream out(path);
    out << "{\"format\": \"something-else\"}";
  }
  EXPECT_TRUE(load_checkpoint(path).empty());
}

TEST_F(CheckpointFixture, FindCompletedMatchesByConfig) {
  const std::vector<Trial> trials{make_trial(0, "Adam", 0.8), make_trial(1, "SGD", 0.7)};
  Config probe;
  probe.set("optimizer", json::Value("SGD"));
  probe.set("num_epochs", json::Value(2));
  const Trial* hit = find_completed(trials, probe);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->result.final_val_accuracy, 0.7);
  probe.set("num_epochs", json::Value(3));
  EXPECT_EQ(find_completed(trials, probe), nullptr);
}

TEST_F(CheckpointFixture, DriverReplaysCheckpointedTrials) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 30, 6);
  const SearchSpace space = SearchSpace::from_json_text(kSpace);

  rt::RuntimeOptions rt_options;
  cluster::NodeSpec node;
  node.cpus = 2;
  rt_options.cluster = cluster::homogeneous(1, node);

  DriverOptions driver_options;
  driver_options.epoch_cap = 1;
  driver_options.checkpoint_path = path;

  // First run: everything trains, checkpoint written.
  HpoOutcome first;
  {
    rt::Runtime runtime(std::move(rt_options));
    HpoDriver driver(runtime.main_study(), dataset, driver_options);
    GridSearch grid(space);
    first = driver.run(grid);
  }
  ASSERT_EQ(first.trials.size(), 4u);
  EXPECT_TRUE(std::filesystem::exists(path));

  // Second run: all four configs replay; no tasks are submitted.
  rt::RuntimeOptions rt_options2;
  rt_options2.cluster = cluster::homogeneous(1, node);
  rt::Runtime runtime(std::move(rt_options2));
  HpoDriver driver(runtime.main_study(), dataset, driver_options);
  GridSearch grid(space);
  const HpoOutcome second = driver.run(grid);
  ASSERT_EQ(second.trials.size(), 4u);
  EXPECT_EQ(runtime.task_count(), 0u);  // nothing resubmitted
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_DOUBLE_EQ(second.trials[i].result.final_val_accuracy,
                     first.trials[i].result.final_val_accuracy);
}

TEST_F(CheckpointFixture, PartialCheckpointOnlySkipsCompleted) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 30, 7);
  const SearchSpace space = SearchSpace::from_json_text(kSpace);
  const auto grid_configs = space.enumerate_grid();

  // Pretend only the first two configs finished before a crash.
  std::vector<Trial> partial;
  for (int i = 0; i < 2; ++i) {
    Trial t = make_trial(i, "x", 0.9);
    t.config = grid_configs[static_cast<std::size_t>(i)];
    partial.push_back(std::move(t));
  }
  save_checkpoint(path, partial);

  cluster::NodeSpec node;
  node.cpus = 2;
  rt::RuntimeOptions rt_options;
  rt_options.cluster = cluster::homogeneous(1, node);
  rt::Runtime runtime(std::move(rt_options));
  DriverOptions driver_options;
  driver_options.epoch_cap = 1;
  driver_options.checkpoint_path = path;
  HpoDriver driver(runtime.main_study(), dataset, driver_options);
  GridSearch grid(space);
  const HpoOutcome outcome = driver.run(grid);
  ASSERT_EQ(outcome.trials.size(), 4u);
  EXPECT_EQ(runtime.task_count(), 2u);  // only the missing two trained
  EXPECT_DOUBLE_EQ(outcome.trials[0].result.final_val_accuracy, 0.9);  // replayed
  // Final checkpoint now holds all four.
  EXPECT_EQ(load_checkpoint(path).size(), 4u);
}

}  // namespace
}  // namespace chpo::hpo
