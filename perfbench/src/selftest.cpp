// Tests of the benchmark's own checkers: each one must accept a correct
// input and reject a deliberately wrong one (a duplicated trial, a missing
// completion, a miscounted ledger, ...). Run with `run.py --selftest`.
#include <cmath>
#include <cstdio>

#include "checks.hpp"

namespace pb {
namespace {

int g_misbehaved = 0;

/// Runs `fn` on a fresh ledger and expects it to pass (want_fail = false)
/// or to record at least one failure (want_fail = true).
template <typename Fn>
void expect(const char* name, bool want_fail, Fn fn) {
  Ops ops;
  fn(ops);
  const bool failed = ops.failed > 0;
  if (failed != want_fail) {
    ++g_misbehaved;
    std::printf("selftest: %s: expected %s, got %s\n", name, want_fail ? "a failure" : "a pass",
                failed ? "a failure" : "a pass");
  }
}

std::vector<GridTrialView> good_grid() {
  std::vector<GridTrialView> trials;
  for (const GridPoint& p : listing1_cross_product())
    trials.push_back({p, std::max(1, p.num_epochs / 10), 0.95, 0.95, false});
  return trials;
}

chpo::ml::TrainResult training() {
  chpo::ml::TrainResult r;
  r.history = {{1, 0.5, 0.8, 0.85}, {2, 0.3, 0.9, 0.93}};
  r.final_val_accuracy = 0.93;
  r.best_val_accuracy = 0.93;
  r.epochs_run = 2;
  return r;
}

StudyView good_study() {
  StudyView s;
  s.algorithm = "grid";
  s.expected_trials = 3;
  s.status_trials_done = 3;
  s.final_state = "finished";
  s.watched = {1, 2, 3};
  return s;
}

}  // namespace

int run_selftest() {
  const std::vector<GridPoint> grid = listing1_cross_product();
  expect("cross product has 27 distinct points", false, [&](Ops& ops) {
    ops.check(grid.size() == 27, "size");
    for (std::size_t i = 0; i < grid.size(); ++i)
      for (std::size_t j = i + 1; j < grid.size(); ++j) ops.check(!(grid[i] == grid[j]), "dup");
  });

  expect("grid: correct trials", false, [&](Ops& ops) { check_grid_trials(good_grid(), grid, 10, ops); });
  expect("grid: duplicated trial", true, [&](Ops& ops) {
    auto t = good_grid();
    t[1] = t[0];
    check_grid_trials(t, grid, 10, ops);
  });
  expect("grid: missing trial", true, [&](Ops& ops) {
    auto t = good_grid();
    t.pop_back();
    check_grid_trials(t, grid, 10, ops);
  });
  expect("grid: wrong epochs_run", true, [&](Ops& ops) {
    auto t = good_grid();
    t[4].epochs_run += 1;
    check_grid_trials(t, grid, 10, ops);
  });
  expect("grid: failed trial", true, [&](Ops& ops) {
    auto t = good_grid();
    t[2].failed = true;
    check_grid_trials(t, grid, 10, ops);
  });
  expect("grid: best is argmax", false, [&](Ops& ops) {
    auto t = good_grid();
    t[5].final_accuracy = 0.99;
    check_best_is_argmax(t, 5, ops);
  });
  expect("grid: best is not argmax", true, [&](Ops& ops) {
    auto t = good_grid();
    t[5].final_accuracy = 0.99;
    check_best_is_argmax(t, 4, ops);
  });
  expect("grid: most reach 90%", false, [&](Ops& ops) { check_most_reach(good_grid(), 0.9, ops); });
  expect("grid: too few reach 90%", true, [&](Ops& ops) {
    auto t = good_grid();
    for (std::size_t i = 0; i < 14; ++i) t[i].best_accuracy = 0.5;
    check_most_reach(t, 0.9, ops);
  });
  expect("grid: identical retraining", false,
         [&](Ops& ops) { check_same_training(training(), training(), ops); });
  expect("grid: retraining differs in the last bit", true, [&](Ops& ops) {
    chpo::ml::TrainResult other = training();
    other.history[1].train_loss = std::nextafter(other.history[1].train_loss, 1.0);
    check_same_training(training(), other, ops);
  });

  expect("storm: each once", false,
         [&](Ops& ops) { check_exactly_once({1, 1, 1}, "runs", ops); });
  expect("storm: a body ran twice", true,
         [&](Ops& ops) { check_exactly_once({1, 2, 1}, "runs", ops); });
  expect("storm: a missing completion", true,
         [&](Ops& ops) { check_exactly_once({1, 0, 1}, "callbacks", ops); });
  expect("storm: all done", false, [&](Ops& ops) { check_all_done({1, 1}, ops); });
  expect("storm: a completion not Done", true, [&](Ops& ops) { check_all_done({1, 0}, ops); });
  expect("storm: right sum", false, [&](Ops& ops) { check_sum(10, 10, "sum", ops); });
  expect("storm: wrong sum", true, [&](Ops& ops) { check_sum(9, 10, "sum", ops); });
  expect("storm: fan-in after inputs", false,
         [&](Ops& ops) { check_fan_in_after_inputs(100, {50, 100}, "w", ops); });
  expect("storm: fan-in before an input ended", true,
         [&](Ops& ops) { check_fan_in_after_inputs(99, {50, 100}, "w", ops); });

  expect("hyperband: bracket formula", false, [&](Ops& ops) {
    ops.check(hyperband_trials(27, 3) == 40 + 17 + 8 + 4, "R=27");
    // R = 243: s_max = 5 in integer arithmetic (floating point gives 4).
    ops.check(hyperband_trials(243, 3) == 364 + 144 + 59 + 26 + 12 + 6, "R=243");
    ops.check(hyperband_trials(1, 3) == 1, "R=1");
  });
  expect("daemon: correct study", false,
         [&](Ops& ops) { check_studies({{1, good_study()}}, ops); });
  expect("daemon: duplicated watch event", true, [&](Ops& ops) {
    StudyView s = good_study();
    s.watched = {1, 2, 2};
    check_studies({{1, s}}, ops);
  });
  expect("daemon: missing watch event", true, [&](Ops& ops) {
    StudyView s = good_study();
    s.watched = {1, 3};
    check_studies({{1, s}}, ops);
  });
  expect("daemon: trial count off the budget", true, [&](Ops& ops) {
    StudyView s = good_study();
    s.status_trials_done = 2;
    check_studies({{1, s}}, ops);
  });
  expect("daemon: study not finished", true, [&](Ops& ops) {
    StudyView s = good_study();
    s.final_state = "killed";
    check_studies({{1, s}}, ops);
  });
  expect("daemon: ledger matches events", false,
         [&](Ops& ops) { check_accounting({{"a", 3}, {"b", 4}}, {{"a", 3}, {"b", 4}}, ops); });
  expect("daemon: miscounted ledger", true,
         [&](Ops& ops) { check_accounting({{"a", 3}, {"b", 5}}, {{"a", 3}, {"b", 4}}, ops); });
  expect("daemon: tenant missing from the ledger", true,
         [&](Ops& ops) { check_accounting({{"a", 3}}, {{"a", 3}, {"b", 4}}, ops); });
  expect("daemon: makespan above the bound", false,
         [&](Ops& ops) { check_makespan_bound(10.0, 480.0, 48, ops); });
  expect("daemon: makespan below the bound", true,
         [&](Ops& ops) { check_makespan_bound(9.0, 480.0, 48, ops); });
  return g_misbehaved;
}

}  // namespace pb
