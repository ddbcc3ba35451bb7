// Output checks of the three workloads. Each checker compares what the
// program returned with a value the benchmark computes on its own, or with
// a property the method must have. They are pure functions over plain
// views, so selftest.cpp can show each one failing on a wrong input.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "ml/trainer.hpp"

namespace pb {

// --- grid_mnist ------------------------------------------------------------

/// One Listing-1 grid point.
struct GridPoint {
  std::string optimizer;
  int num_epochs = 0;
  int batch_size = 0;
  bool operator==(const GridPoint&) const = default;
};

/// What the benchmark reads back from one finished trial.
struct GridTrialView {
  GridPoint config;
  int epochs_run = 0;
  double final_accuracy = 0;  ///< what HpoDriver ranks trials by
  double best_accuracy = 0;   ///< highest validation accuracy the trial attained
  bool failed = false;
};

/// The cross product of the Listing-1 lists, computed by the benchmark.
std::vector<GridPoint> listing1_cross_product();

/// Exactly one trial per grid point, none failed, and each trial ran its
/// configured epochs divided by `epoch_divisor` (at least one).
void check_grid_trials(const std::vector<GridTrialView>& trials,
                       const std::vector<GridPoint>& expected, int epoch_divisor, Ops& ops);
/// The reported best trial has the highest final accuracy of all trials.
void check_best_is_argmax(const std::vector<GridTrialView>& trials, int best_index, Ops& ops);
/// The paper's claim: most configurations reach `threshold` accuracy.
void check_most_reach(const std::vector<GridTrialView>& trials, double threshold, Ops& ops);
/// Two training results are equal bit for bit.
void check_same_training(const chpo::ml::TrainResult& runtime_result,
                         const chpo::ml::TrainResult& direct_result, Ops& ops);

// --- storm_thread ----------------------------------------------------------

/// Every entry of `counts` is exactly 1 (a body ran / a callback fired once).
void check_exactly_once(const std::vector<std::uint32_t>& counts, const std::string& what,
                        Ops& ops);
/// Every delivered completion state is Done.
void check_all_done(const std::vector<std::uint8_t>& done_flags, Ops& ops);
/// A fan-in's sum equals its closed form.
void check_sum(std::int64_t got, std::int64_t expected, const std::string& what, Ops& ops);
/// A fan-in body started no earlier than the last of its inputs ended
/// (benchmark's own steady-clock stamps, in ns).
void check_fan_in_after_inputs(std::int64_t fan_in_start,
                               const std::vector<std::int64_t>& input_ends,
                               const std::string& what, Ops& ops);

// --- daemon_mn4 ------------------------------------------------------------

/// Trials a Hyperband study runs for maximum budget `r` and ratio `eta`,
/// in integer arithmetic: s_max is the largest s with eta^s <= r; bracket
/// s starts ceil((s_max+1) * eta^s / (s+1)) configs at r / eta^s epochs and
/// keeps floor(n / eta) per rung while the epoch budget stays below r.
long hyperband_trials(long r, long eta);

/// Per-study view the client assembles from replies and watch events.
struct StudyView {
  std::string algorithm;
  long expected_trials = 0;       ///< from the budget / grid / bracket formula
  long status_trials_done = -1;   ///< `status` reply after the finished event
  std::string final_state;        ///< last state event ("finished")
  std::vector<long> watched;      ///< trials_done of each trial event, in order
};

/// Every study finished, with the expected trial count, and its watch
/// stream carried each trial exactly once.
void check_studies(const std::map<std::int64_t, StudyView>& studies, Ops& ops);
/// Each tenant's `accounting` trial count equals the trial events the
/// client saw for that tenant's studies.
void check_accounting(const std::map<std::string, long>& ledger_trials,
                      const std::map<std::string, long>& events_seen, Ops& ops);
/// Work conservation: the cluster cannot finish `busy_core_s` core-seconds
/// of tasks on `cores` cores faster than busy_core_s / cores.
void check_makespan_bound(double makespan_s, double busy_core_s, unsigned cores, Ops& ops);

}  // namespace pb
