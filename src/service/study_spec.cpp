#include "service/study_spec.hpp"

#include <algorithm>
#include <array>

namespace chpo::service {

namespace {

const std::array<const char*, 6> kAlgorithms = {"grid", "random", "gp",
                                                "tpe",  "halving", "hyperband"};

const std::array<const char*, 13> kKnownKeys = {
    "name",   "algorithm",   "space",          "budget",        "seed",
    "weight", "max_running", "checkpoint",     "stop_on_accuracy",
    "epoch_divisor",         "epoch_cap",      "parallel_suggestions",
    "paused"};

std::int64_t require_int(const json::Value& v, const char* key) {
  if (!v.is_int()) throw SpecError(std::string("spec field '") + key + "' must be an integer");
  return v.as_int();
}

double require_number(const json::Value& v, const char* key) {
  if (!v.is_number()) throw SpecError(std::string("spec field '") + key + "' must be a number");
  return v.as_double();
}

std::string require_string(const json::Value& v, const char* key) {
  if (!v.is_string()) throw SpecError(std::string("spec field '") + key + "' must be a string");
  return v.as_string();
}

}  // namespace

bool known_algorithm(const std::string& name) {
  return std::find_if(kAlgorithms.begin(), kAlgorithms.end(),
                      [&](const char* a) { return name == a; }) != kAlgorithms.end();
}

StudySpec study_spec_from_json(const json::Value& spec_json, const StudySpecDefaults& defaults) {
  if (!spec_json.is_object()) throw SpecError("study spec must be a JSON object");
  for (const auto& [key, _] : spec_json.as_object())
    if (std::find_if(kKnownKeys.begin(), kKnownKeys.end(),
                     [&](const char* k) { return key == k; }) == kKnownKeys.end())
      throw SpecError("unknown spec field '" + key + "'");

  StudySpec spec;
  spec.driver = defaults.driver;
  spec.budget = defaults.budget;

  if (const json::Value* v = spec_json.find("algorithm")) {
    spec.algorithm = require_string(*v, "algorithm");
    if (!known_algorithm(spec.algorithm))
      throw SpecError("unknown algorithm '" + spec.algorithm +
                      "' (grid | random | gp | tpe | halving | hyperband)");
  }

  const json::Value* space = spec_json.find("space");
  if (space == nullptr) throw SpecError("study spec is missing 'space'");
  try {
    spec.space = hpo::SearchSpace::from_json(*space);
  } catch (const std::exception& e) {
    throw SpecError(std::string("invalid search space: ") + e.what());
  }

  if (const json::Value* v = spec_json.find("name")) spec.name = require_string(*v, "name");
  if (spec.name.empty()) spec.name = spec.algorithm;

  if (const json::Value* v = spec_json.find("budget")) {
    const std::int64_t budget = require_int(*v, "budget");
    if (budget < 1) throw SpecError("spec field 'budget' must be >= 1");
    spec.budget = static_cast<std::size_t>(budget);
  }
  if (const json::Value* v = spec_json.find("seed"))
    spec.driver.seed = static_cast<std::uint64_t>(require_int(*v, "seed"));
  if (const json::Value* v = spec_json.find("weight")) {
    spec.weight = require_number(*v, "weight");
    if (spec.weight <= 0.0) throw SpecError("spec field 'weight' must be > 0");
  }
  if (const json::Value* v = spec_json.find("max_running"))
    spec.max_running = static_cast<int>(require_int(*v, "max_running"));
  if (const json::Value* v = spec_json.find("checkpoint"))
    spec.driver.checkpoint_path = require_string(*v, "checkpoint");
  if (const json::Value* v = spec_json.find("stop_on_accuracy"))
    spec.driver.stop_on_accuracy = require_number(*v, "stop_on_accuracy");
  if (const json::Value* v = spec_json.find("epoch_divisor"))
    spec.driver.epoch_divisor = static_cast<int>(require_int(*v, "epoch_divisor"));
  if (const json::Value* v = spec_json.find("epoch_cap"))
    spec.driver.epoch_cap = static_cast<int>(require_int(*v, "epoch_cap"));
  if (const json::Value* v = spec_json.find("parallel_suggestions"))
    spec.driver.parallel_suggestions = static_cast<int>(require_int(*v, "parallel_suggestions"));
  if (const json::Value* v = spec_json.find("paused"))
    if (!v->is_bool()) throw SpecError("spec field 'paused' must be a boolean");

  // Halving sizes its first rung from the trial budget (StudyManager
  // hands both bracket pumps the spec's driver options).
  spec.halving.initial_configs = spec.budget;
  return spec;
}

}  // namespace chpo::service
