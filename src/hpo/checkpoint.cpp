#include "hpo/checkpoint.hpp"

#include <filesystem>

#include "reuse/snapshot_io.hpp"
#include "support/atomic_file.hpp"
#include "support/log.hpp"

namespace chpo::hpo {

json::Value trial_to_json(const Trial& trial) {
  json::Value out;
  out.set("index", json::Value(static_cast<std::int64_t>(trial.index)));
  out.set("config", trial.config);
  out.set("failed", json::Value(trial.failed));
  if (trial.failed) {
    out.set("failure_reason", json::Value(trial.failure_reason));
    return out;
  }
  // The result fields share their representation with the reuse cache's
  // TrainResult entries; inline them at the trial's top level.
  json::Value result = reuse::train_result_to_json(trial.result);
  for (auto& [key, field] : result.as_object()) out.set(key, std::move(field));
  return out;
}

Trial trial_from_json(const json::Value& value) {
  Trial trial;
  trial.index = static_cast<int>(value.at("index").as_int());
  trial.config = value.at("config");
  trial.failed = value.at("failed").as_bool();
  if (trial.failed) {
    if (value.contains("failure_reason"))
      trial.failure_reason = value.at("failure_reason").as_string();
    return trial;
  }
  trial.result = reuse::train_result_from_json(value);
  return trial;
}

json::Value trials_to_json(const std::vector<Trial>& trials) {
  json::Array array;
  array.reserve(trials.size());
  for (const Trial& t : trials) array.push_back(trial_to_json(t));
  json::Value out;
  out.set("format", json::Value("chpo-checkpoint-v1"));
  out.set("trials", json::Value(std::move(array)));
  return out;
}

std::vector<Trial> trials_from_json(const json::Value& value) {
  if (!value.contains("format") || value.at("format").as_string() != "chpo-checkpoint-v1")
    throw json::JsonError("checkpoint: unknown format");
  std::vector<Trial> out;
  for (const auto& t : value.at("trials").as_array()) out.push_back(trial_from_json(t));
  return out;
}

void save_checkpoint(const std::string& path, const std::vector<Trial>& trials) {
  // A failed write (full disk) keeps the last good checkpoint in place.
  if (!atomic_write_file(path, json::serialize_pretty(trials_to_json(trials)) + "\n",
                         /*durable=*/false))
    throw std::runtime_error("checkpoint: cannot write " + path);
}

std::vector<Trial> load_checkpoint(const std::string& path) {
  if (!std::filesystem::exists(path)) return {};
  // A checkpoint exists to survive crashes — including a crash mid-write of
  // the checkpoint itself (or disk corruption). A file we cannot parse is a
  // warned fresh start, never a fatal error; a file that parses but holds
  // some damaged trial entries is salvaged entry by entry (the ResultCache
  // policy): every intact trial is kept, the rest retrain.
  try {
    const json::Value value = json::parse_file(path);
    if (!value.contains("format") || value.at("format").as_string() != "chpo-checkpoint-v1")
      throw json::JsonError("checkpoint: unknown format");
    std::vector<Trial> out;
    std::size_t skipped = 0;
    for (const auto& t : value.at("trials").as_array()) {
      try {
        out.push_back(trial_from_json(t));
      } catch (const std::exception& e) {
        ++skipped;
        log_warn("hpo", "checkpoint {}: skipping corrupt trial entry ({})", path, e.what());
      }
    }
    if (skipped > 0)
      log_warn("hpo", "checkpoint {}: salvaged {} of {} trials", path, out.size(),
               out.size() + skipped);
    return out;
  } catch (const std::exception& e) {
    log_warn("hpo", "checkpoint {} unreadable ({}); starting fresh", path, e.what());
    return {};
  }
}

const Trial* find_completed(const std::vector<Trial>& previous, const Config& config) {
  const std::string key = json::serialize(config);
  for (const Trial& t : previous)
    if (!t.failed && json::serialize(t.config) == key) return &t;
  return nullptr;
}

}  // namespace chpo::hpo
