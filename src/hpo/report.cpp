#include "hpo/report.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "support/strings.hpp"

namespace chpo::hpo {

std::string trials_table(const std::vector<Trial>& trials) {
  std::ostringstream out;
  out << pad_right("trial", 6) << pad_right("config", 48) << pad_left("epochs", 7)
      << pad_left("val_acc", 9) << pad_left("best", 9) << pad_left("att", 5) << "  note\n";
  for (const Trial& t : trials) {
    // attempts == 0: replayed from a checkpoint, no task ran this session.
    const std::string attempts = t.attempts > 0 ? std::to_string(t.attempts) : "-";
    out << pad_right(std::to_string(t.index), 6) << pad_right(config_brief(t.config), 48);
    if (t.failed) {
      out << pad_left("-", 7) << pad_left("-", 9) << pad_left("-", 9) << pad_left(attempts, 5)
          << "  FAILED: " << t.failure_reason << "\n";
      continue;
    }
    char acc[16], best[16];
    std::snprintf(acc, sizeof acc, "%.3f", t.result.final_val_accuracy);
    std::snprintf(best, sizeof best, "%.3f", t.result.best_val_accuracy);
    out << pad_left(std::to_string(t.result.epochs_run), 7) << pad_left(acc, 9)
        << pad_left(best, 9) << pad_left(attempts, 5)
        << (t.result.stopped_early ? "  early-stop" : "") << "\n";
  }
  return out.str();
}

std::string attempt_stats(const std::vector<trace::Event>& events) {
  struct Stats {
    int runs = 0;
    int failures = 0;
    int retries = 0;
    int stragglers = 0;
    int spec_launches = 0;
    int spec_wins = 0;
    int backoffs = 0;
    double busy_seconds = 0.0;
  };
  std::map<std::string, Stats> by_name;
  // Only attempt events make a row: study lifecycle events carry the
  // study's name in task_name too.
  for (const trace::Event& e : events) {
    if (e.task_name.empty()) continue;
    switch (e.kind) {
      case trace::EventKind::TaskRun:
        ++by_name[e.task_name].runs;
        by_name[e.task_name].busy_seconds += e.t_end - e.t_start;
        break;
      case trace::EventKind::TaskFailure: ++by_name[e.task_name].failures; break;
      case trace::EventKind::TaskRetry: ++by_name[e.task_name].retries; break;
      case trace::EventKind::StragglerDetected: ++by_name[e.task_name].stragglers; break;
      case trace::EventKind::SpeculativeLaunch: ++by_name[e.task_name].spec_launches; break;
      case trace::EventKind::SpeculativeWin: ++by_name[e.task_name].spec_wins; break;
      case trace::EventKind::Backoff: ++by_name[e.task_name].backoffs; break;
      default: break;
    }
  }
  std::ostringstream out;
  out << pad_right("task", 16) << pad_left("runs", 6) << pad_left("fail", 6)
      << pad_left("retry", 7) << pad_left("strag", 7) << pad_left("spec", 6)
      << pad_left("won", 5) << pad_left("backoff", 9) << pad_left("busy_s", 10) << "\n";
  for (const auto& [name, s] : by_name) {
    char busy[24];
    std::snprintf(busy, sizeof busy, "%.3f", s.busy_seconds);
    out << pad_right(name, 16) << pad_left(std::to_string(s.runs), 6)
        << pad_left(std::to_string(s.failures), 6) << pad_left(std::to_string(s.retries), 7)
        << pad_left(std::to_string(s.stragglers), 7)
        << pad_left(std::to_string(s.spec_launches), 6) << pad_left(std::to_string(s.spec_wins), 5)
        << pad_left(std::to_string(s.backoffs), 9) << pad_left(busy, 10) << "\n";
  }
  return out.str();
}

std::string accuracy_chart(const std::vector<Trial>& trials, std::size_t width,
                           std::size_t height) {
  std::size_t max_epochs = 0;
  for (const Trial& t : trials)
    if (!t.failed) max_epochs = std::max(max_epochs, t.result.history.size());
  if (max_epochs == 0 || height < 2) return "(no histories)\n";

  std::vector<std::string> rows(height, std::string(width, ' '));
  static constexpr char kGlyphs[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  for (std::size_t ti = 0; ti < trials.size(); ++ti) {
    const Trial& t = trials[ti];
    if (t.failed) continue;
    const char glyph = kGlyphs[ti % (sizeof(kGlyphs) - 1)];
    for (const auto& stats : t.result.history) {
      const double x = max_epochs > 1
                           ? static_cast<double>(stats.epoch - 1) / static_cast<double>(max_epochs - 1)
                           : 0.0;
      const std::size_t col = std::min(width - 1, static_cast<std::size_t>(x * static_cast<double>(width - 1)));
      const double acc = std::clamp(stats.val_accuracy, 0.0, 1.0);
      const std::size_t row =
          height - 1 - std::min(height - 1, static_cast<std::size_t>(acc * static_cast<double>(height - 1)));
      rows[row][col] = glyph;
    }
  }

  std::ostringstream out;
  out << "validation accuracy vs epoch (one glyph per trial, 1.0 at top)\n";
  for (std::size_t r = 0; r < height; ++r) {
    const double level = 1.0 - static_cast<double>(r) / static_cast<double>(height - 1);
    char label[8];
    std::snprintf(label, sizeof label, "%4.2f", level);
    out << label << " |" << rows[r] << "|\n";
  }
  out << "      epochs 1.." << max_epochs << "\n";
  return out.str();
}

std::string history_csv(const std::vector<Trial>& trials) {
  std::ostringstream out;
  out << "trial,epoch,train_loss,train_acc,val_acc\n";
  for (const Trial& t : trials) {
    if (t.failed) continue;
    for (const auto& stats : t.result.history)
      out << t.index << "," << stats.epoch << "," << stats.train_loss << ","
          << stats.train_accuracy << "," << stats.val_accuracy << "\n";
  }
  return out.str();
}

std::string outcome_summary(const HpoOutcome& outcome) {
  std::ostringstream out;
  out << outcome.trials.size() << " trials in " << format_duration(outcome.elapsed_seconds);
  if (outcome.stopped_early) out << " (stopped early)";
  if (const Trial* best = outcome.best()) {
    char acc[16];
    std::snprintf(acc, sizeof acc, "%.3f", best->result.final_val_accuracy);
    out << "; best: " << config_brief(best->config) << " -> val_acc " << acc;
  }
  out << "\n";
  return out.str();
}

std::string reuse_summary(const reuse::ReuseReport& report) {
  std::ostringstream out;
  out << "reuse: " << report.trials << " trials, " << report.replayed_trials
      << " replayed from cache, " << report.chains << " chains, " << report.stages
      << " stage tasks (" << report.shared_stages << " shared)\n";
  out << "  epochs: " << report.planned_epochs << " planned vs " << report.naive_epochs
      << " naive";
  if (report.planned_epochs > 0 && report.naive_epochs > report.planned_epochs) {
    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%.2f",
                  static_cast<double>(report.naive_epochs) /
                      static_cast<double>(report.planned_epochs));
    out << " (" << ratio << "x compute collapse)";
  }
  out << "\n";
  const reuse::CacheStats& c = report.cache;
  out << "  cache hits: " << c.hits << ", misses: " << c.misses << ", disk hits: " << c.disk_hits
      << ", puts: " << c.puts << ", duplicate puts: " << c.duplicate_puts
      << ", evictions: " << c.evictions << ", corrupt: " << c.corrupt << "\n";
  out << "  cache bytes: " << c.memory_bytes << " in memory, " << c.disk_bytes << " on disk, "
      << c.bytes_written << " written\n";
  return out.str();
}

std::string fault_summary(const std::vector<trace::Event>& events, std::size_t recoveries,
                          std::size_t unrecoverable, const rt::NodeHealth& health) {
  std::size_t node_down = 0, node_up = 0, data_lost = 0, quarantines = 0;
  for (const trace::Event& e : events) {
    switch (e.kind) {
      case trace::EventKind::NodeDown: ++node_down; break;
      case trace::EventKind::NodeUp: ++node_up; break;
      case trace::EventKind::DataLost: ++data_lost; break;
      case trace::EventKind::Quarantine: ++quarantines; break;
      default: break;
    }
  }
  std::ostringstream out;
  out << "fault tolerance: " << node_down << " node-down, " << node_up << " node-up, "
      << data_lost << " data-lost, " << quarantines << " quarantines\n";
  out << "  recoveries: " << recoveries << " lineage recomputations, " << unrecoverable
      << " unrecoverable\n";
  out << "  " << pad_right("node", 6) << pad_right("health", 13) << pad_left("score", 7)
      << pad_left("obs", 5) << "\n";
  for (std::size_t node = 0; node < health.node_count(); ++node) {
    const char* state = "healthy";
    switch (health.state(node)) {
      case rt::HealthState::Healthy: state = "healthy"; break;
      case rt::HealthState::Quarantined: state = "quarantined"; break;
      case rt::HealthState::Probation: state = "probation"; break;
    }
    char score[16];
    std::snprintf(score, sizeof score, "%.3f", health.score(node));
    out << "  " << pad_right(std::to_string(node), 6) << pad_right(state, 13)
        << pad_left(score, 7) << pad_left(std::to_string(health.observations(node)), 5) << "\n";
  }
  return out.str();
}

std::string multi_study_summary(const std::vector<StudySummaryRow>& rows) {
  std::ostringstream out;
  out << "concurrent studies:\n";
  out << "  " << pad_right("study", 24) << pad_right("algorithm", 11) << pad_right("state", 10)
      << pad_left("trials", 7) << pad_left("best", 8) << pad_left("elapsed", 13) << "\n";
  for (const StudySummaryRow& row : rows) {
    char best[16];
    if (row.best_accuracy >= 0.0)
      std::snprintf(best, sizeof best, "%.3f", row.best_accuracy);
    else
      std::snprintf(best, sizeof best, "-");
    out << "  " << pad_right(row.name, 24) << pad_right(row.algorithm, 11)
        << pad_right(row.state, 10) << pad_left(std::to_string(row.trials), 7)
        << pad_left(best, 8) << pad_left(format_duration(row.elapsed_seconds), 13) << "\n";
  }
  return out.str();
}

}  // namespace chpo::hpo
