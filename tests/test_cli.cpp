// End-to-end tests of the chpo_run CLI binary (the runcompss equivalent).
// The binary path is injected by CMake as CHPO_RUN_BINARY.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace {

std::string run_command(const std::string& command, int* exit_code) {
  const std::string output_path = "/tmp/chpo_cli_test_output.txt";
  const int rc = std::system((command + " > " + output_path + " 2>&1").c_str());
  *exit_code = rc == -1 ? -1 : WEXITSTATUS(rc);
  std::ifstream in(output_path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(output_path.c_str());
  return ss.str();
}

struct CliFixture : ::testing::Test {
  void SetUp() override {
    space_path = "/tmp/chpo_cli_space.json";
    std::ofstream out(space_path);
    out << R"({"optimizer": ["Adam", "SGD"], "num_epochs": [10], "batch_size": [16]})";
  }
  void TearDown() override { std::remove(space_path.c_str()); }

  std::string binary = CHPO_RUN_BINARY;
  std::string space_path;
};

TEST_F(CliFixture, GridRunPrintsTrialsAndBest) {
  int exit_code = -1;
  const std::string output = run_command(
      binary + " " + space_path + " --epoch-cap 1 --train-samples 60 --test-samples 20",
      &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("trial"), std::string::npos);
  EXPECT_NE(output.find("best:"), std::string::npos);
  EXPECT_NE(output.find("optimizer"), std::string::npos);
}

TEST_F(CliFixture, SimulateReportsVirtualMakespan) {
  int exit_code = -1;
  const std::string output = run_command(
      binary + " " + space_path + " --simulate --machine mn4 --nodes 1", &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("virtual makespan"), std::string::npos);
}

TEST_F(CliFixture, ArtifactsWritten) {
  int exit_code = -1;
  const std::string dot = "/tmp/chpo_cli_graph.dot";
  const std::string trace = "/tmp/chpo_cli_trace";
  const std::string output = run_command(binary + " " + space_path +
                                             " --simulate --graph " + dot + " --trace " + trace,
                                         &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_TRUE(std::filesystem::exists(dot));
  EXPECT_TRUE(std::filesystem::exists(trace + ".prv"));
  EXPECT_TRUE(std::filesystem::exists(trace + ".pcf"));
  for (const char* path : {"/tmp/chpo_cli_graph.dot", "/tmp/chpo_cli_trace.prv",
                           "/tmp/chpo_cli_trace.row", "/tmp/chpo_cli_trace.pcf"})
    std::remove(path);
}

TEST_F(CliFixture, CheckpointReplayIsFaster) {
  int exit_code = -1;
  const std::string checkpoint = "/tmp/chpo_cli_checkpoint.json";
  std::remove(checkpoint.c_str());
  const std::string args = " " + space_path +
                           " --epoch-cap 1 --train-samples 60 --test-samples 20 --checkpoint " +
                           checkpoint;
  run_command(binary + args, &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_TRUE(std::filesystem::exists(checkpoint));
  const std::string second = run_command(binary + args, &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(second.find("best:"), std::string::npos);
  std::remove(checkpoint.c_str());
}

TEST_F(CliFixture, HalvingRunPrintsBest) {
  int exit_code = -1;
  const std::string output = run_command(
      binary + " " + space_path +
          " --algorithm halving --budget 4 --epoch-cap 1 --train-samples 60 --test-samples 20",
      &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("best:"), std::string::npos) << output;
}

TEST_F(CliFixture, SimulatedHyperbandRunPrintsBest) {
  int exit_code = -1;
  const std::string output = run_command(
      binary + " " + space_path +
          " --algorithm hyperband --simulate --epoch-cap 1 --train-samples 60 --test-samples 20",
      &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_NE(output.find("best:"), std::string::npos) << output;
}

TEST_F(CliFixture, UnknownAlgorithmFails) {
  int exit_code = -1;
  const std::string output =
      run_command(binary + " " + space_path + " --algorithm annealing", &exit_code);
  EXPECT_NE(exit_code, 0);
  EXPECT_NE(output.find("unknown --algorithm"), std::string::npos);
}

TEST_F(CliFixture, MissingSpaceFileFails) {
  int exit_code = -1;
  const std::string output = run_command(binary + " /nonexistent/space.json", &exit_code);
  EXPECT_NE(exit_code, 0);
}

TEST_F(CliFixture, HelpPrintsUsage) {
  int exit_code = -1;
  const std::string output = run_command(binary + " --help", &exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(output.find("usage:"), std::string::npos);
  EXPECT_NE(output.find("--algorithm"), std::string::npos);
}

TEST_F(CliFixture, CsvPerStudyWithSeveralStudies) {
  // Each study numbers its trials from 0, so one shared file would repeat
  // indices across studies; every study gets its own <csv>.study<i>.
  int exit_code = -1;
  const std::string csv = "/tmp/chpo_cli_history.csv";
  const std::string output = run_command(
      binary + " " + space_path +
          " --studies 2 --algorithms grid,random --budget 3 --epoch-cap 1 --train-samples 60"
          " --test-samples 20 --csv " +
          csv,
      &exit_code);
  EXPECT_EQ(exit_code, 0) << output;
  EXPECT_FALSE(std::filesystem::exists(csv));
  for (const std::string& path : {csv + ".study0", csv + ".study1"}) {
    ASSERT_TRUE(std::filesystem::exists(path)) << output;
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "trial,epoch,train_loss,train_acc,val_acc");
    // A trial's history has one row per epoch: a repeated (trial, epoch)
    // pair means two different trials share the index in this file.
    std::set<std::string> trial_epochs;
    std::size_t rows = 0;
    while (std::getline(in, line)) {
      ++rows;
      const std::size_t second_comma = line.find(',', line.find(',') + 1);
      EXPECT_TRUE(trial_epochs.insert(line.substr(0, second_comma)).second)
          << path << " repeats " << line;
    }
    EXPECT_GT(rows, 0u) << path;
    std::remove(path.c_str());
  }
}

}  // namespace
