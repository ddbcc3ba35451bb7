// StudySpec construction from JSON — the one code path shared by every
// front-end that submits to a StudyManager.
//
// chpo_run builds one spec object per study from its flags; the
// service daemon receives the same object verbatim in a `submit` request.
// Both funnel through study_spec_from_json(), so a spec that runs from the
// CLI is bit-for-bit the spec the daemon admits — there is no second
// flag-to-spec translation to drift.
#pragma once

#include <stdexcept>
#include <string>

#include "jsonlite/json.hpp"
#include "service/study_manager.hpp"

namespace chpo::service {

/// Thrown on an invalid spec (unknown algorithm, missing space, unknown
/// key, wrong type). The message is safe to echo to a remote client.
class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& what) : std::runtime_error(what) {}
};

/// Deployment-level defaults a spec starts from: the driver options the
/// host configured (constraint, workload model, reuse, ...) and the
/// default trial budget. Per-spec JSON fields override on top.
struct StudySpecDefaults {
  hpo::DriverOptions driver;
  std::size_t budget = 16;
};

/// True iff `name` is an algorithm a spec may name (grid | random | gp |
/// tpe | halving | hyperband).
bool known_algorithm(const std::string& name);

/// Parse one study spec:
///
///   { "name": "alice-tpe", "algorithm": "tpe",
///     "space": { ... search-space JSON ... },
///     "budget": 8, "seed": 7, "checkpoint": "st.json",
///     "weight": 2.0, "max_running": 4,
///     "stop_on_accuracy": 0.95, "epoch_divisor": 10, "epoch_cap": 3,
///     "parallel_suggestions": 1, "paused": true }
///
/// `algorithm` and `space` drive the pump choice; everything else is
/// optional and falls back to `defaults`. "paused" is validated but not
/// stored — it is a submission-time instruction the caller (the daemon)
/// acts on, not a property of the study. Unknown keys are rejected so a
/// typo ("bugdet") fails loudly instead of silently using the default.
StudySpec study_spec_from_json(const json::Value& spec_json, const StudySpecDefaults& defaults);

}  // namespace chpo::service
