#include "checks.hpp"

#include <algorithm>
#include <cstring>

namespace pb {

std::vector<GridPoint> listing1_cross_product() {
  std::vector<GridPoint> points;
  for (const char* optimizer : {"Adam", "SGD", "RMSprop"})
    for (int epochs : {20, 50, 100})
      for (int batch : {32, 64, 128}) points.push_back({optimizer, epochs, batch});
  return points;
}

void check_grid_trials(const std::vector<GridTrialView>& trials,
                       const std::vector<GridPoint>& expected, int epoch_divisor, Ops& ops) {
  ops.check(trials.size() == expected.size(),
            "grid: " + std::to_string(trials.size()) + " trials, expected " +
                std::to_string(expected.size()));
  std::vector<int> hits(expected.size(), 0);
  for (const GridTrialView& t : trials) {
    const auto it = std::find(expected.begin(), expected.end(), t.config);
    if (!ops.check(it != expected.end(), "grid: trial outside the cross product")) continue;
    ++hits[static_cast<std::size_t>(it - expected.begin())];
    ops.check(!t.failed, "grid: a trial failed");
    const int want = std::max(1, t.config.num_epochs / std::max(1, epoch_divisor));
    ops.check(t.epochs_run == want, "grid: epochs_run " + std::to_string(t.epochs_run) +
                                        " != " + std::to_string(want));
  }
  for (std::size_t i = 0; i < hits.size(); ++i)
    ops.check(hits[i] == 1, "grid: point " + std::to_string(i) + " evaluated " +
                                std::to_string(hits[i]) + " times");
}

void check_best_is_argmax(const std::vector<GridTrialView>& trials, int best_index, Ops& ops) {
  if (!ops.check(best_index >= 0 && best_index < static_cast<int>(trials.size()),
                 "grid: no best trial reported"))
    return;
  double best = -1.0;
  for (const GridTrialView& t : trials)
    if (!t.failed) best = std::max(best, t.final_accuracy);
  ops.check(trials[static_cast<std::size_t>(best_index)].final_accuracy == best,
            "grid: reported best is not the argmax");
}

void check_most_reach(const std::vector<GridTrialView>& trials, double threshold, Ops& ops) {
  std::size_t above = 0;
  for (const GridTrialView& t : trials)
    if (!t.failed && t.best_accuracy >= threshold) ++above;
  ops.check(2 * above > trials.size(), "grid: only " + std::to_string(above) + " of " +
                                           std::to_string(trials.size()) + " configs reach " +
                                           std::to_string(threshold));
}

void check_same_training(const chpo::ml::TrainResult& a, const chpo::ml::TrainResult& b,
                         Ops& ops) {
  bool same = a.epochs_run == b.epochs_run && a.history.size() == b.history.size() &&
              std::memcmp(&a.final_val_accuracy, &b.final_val_accuracy, sizeof(double)) == 0 &&
              std::memcmp(&a.best_val_accuracy, &b.best_val_accuracy, sizeof(double)) == 0;
  for (std::size_t i = 0; same && i < a.history.size(); ++i) {
    const auto& x = a.history[i];
    const auto& y = b.history[i];
    same = x.epoch == y.epoch &&
           std::memcmp(&x.train_loss, &y.train_loss, sizeof(double)) == 0 &&
           std::memcmp(&x.train_accuracy, &y.train_accuracy, sizeof(double)) == 0 &&
           std::memcmp(&x.val_accuracy, &y.val_accuracy, sizeof(double)) == 0;
  }
  ops.check(same, "grid: retrained trial differs from the runtime's result");
}

void check_exactly_once(const std::vector<std::uint32_t>& counts, const std::string& what,
                        Ops& ops) {
  std::size_t wrong = 0, first = counts.size();
  for (std::size_t i = 0; i < counts.size(); ++i)
    if (counts[i] != 1 && wrong++ == 0) first = i;
  ops.check(wrong == 0, what + ": " + std::to_string(wrong) + " not exactly once (first #" +
                            std::to_string(first) + ")");
}

void check_all_done(const std::vector<std::uint8_t>& done_flags, Ops& ops) {
  const auto bad = std::count(done_flags.begin(), done_flags.end(), std::uint8_t{0});
  ops.check(bad == 0, "storm: " + std::to_string(bad) + " completions not Done");
}

void check_sum(std::int64_t got, std::int64_t expected, const std::string& what, Ops& ops) {
  ops.check(got == expected,
            what + ": sum " + std::to_string(got) + " != " + std::to_string(expected));
}

void check_fan_in_after_inputs(std::int64_t fan_in_start,
                               const std::vector<std::int64_t>& input_ends,
                               const std::string& what, Ops& ops) {
  std::int64_t last = 0;
  for (std::int64_t end : input_ends) last = std::max(last, end);
  ops.check(!input_ends.empty() && fan_in_start > 0 && fan_in_start >= last,
            what + ": fan-in started before its inputs ended");
}

long hyperband_trials(long r, long eta) {
  long s_max = 0;
  for (long p = eta; p <= r; p *= eta) ++s_max;
  long total = 0;
  for (long s = s_max; s >= 0; --s) {
    long eta_s = 1;
    for (long i = 0; i < s; ++i) eta_s *= eta;
    long n = ((s_max + 1) * eta_s + s) / (s + 1);  // ceil((s_max+1) * eta^s / (s+1))
    long epochs = std::max(1L, r / eta_s);
    while (n > 0) {
      total += n;
      n /= eta;
      if (epochs >= r) break;
      epochs = std::min(r, epochs * eta);
    }
  }
  return total;
}

void check_studies(const std::map<std::int64_t, StudyView>& studies, Ops& ops) {
  for (const auto& [id, s] : studies) {
    const std::string tag = "study " + std::to_string(id) + " (" + s.algorithm + ")";
    ops.check(s.final_state == "finished", tag + ": ended " + s.final_state);
    ops.check(s.status_trials_done == s.expected_trials,
              tag + ": status reports " + std::to_string(s.status_trials_done) +
                  " trials, expected " + std::to_string(s.expected_trials));
    std::vector<long> sorted = s.watched;
    std::sort(sorted.begin(), sorted.end());
    bool once = static_cast<long>(sorted.size()) == s.expected_trials;
    for (std::size_t i = 0; once && i < sorted.size(); ++i)
      once = sorted[i] == static_cast<long>(i) + 1;
    ops.check(once, tag + ": watch stream carried " + std::to_string(s.watched.size()) +
                        " trial events, not each of " + std::to_string(s.expected_trials) +
                        " once");
  }
}

void check_accounting(const std::map<std::string, long>& ledger_trials,
                      const std::map<std::string, long>& events_seen, Ops& ops) {
  ops.check(ledger_trials.size() == events_seen.size(), "accounting: tenant sets differ");
  for (const auto& [tenant, seen] : events_seen) {
    const auto it = ledger_trials.find(tenant);
    const long billed = it == ledger_trials.end() ? -1 : it->second;
    ops.check(billed == seen, "accounting: tenant " + tenant + " billed " +
                                  std::to_string(billed) + " trials, saw " +
                                  std::to_string(seen));
  }
}

void check_makespan_bound(double makespan_s, double busy_core_s, unsigned cores, Ops& ops) {
  // A relative slack of 1e-9 absorbs rounding in the two sums.
  ops.check(cores > 0 && makespan_s > 0 &&
                makespan_s * (1 + 1e-9) >= busy_core_s / static_cast<double>(cores),
            "daemon: makespan below the work-conservation bound");
}

}  // namespace pb
