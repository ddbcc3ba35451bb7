#include "service/study_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "support/log.hpp"

namespace chpo::service {

const char* study_state_name(StudyState state) {
  switch (state) {
    case StudyState::Queued: return "queued";
    case StudyState::Running: return "running";
    case StudyState::Paused: return "paused";
    case StudyState::Finished: return "finished";
    case StudyState::Killed: return "killed";
  }
  return "?";
}

StudyManager::StudyManager(ManagerOptions options, const ml::Dataset& dataset)
    : options_(std::move(options)), dataset_(dataset), runtime_(std::move(options_.runtime)) {}

StudyManager::~StudyManager() {
  // Abandoned/paused pumps may still have in-flight attempts; the
  // Runtime's destructor drains them (unpausing every study first), so
  // nothing special is needed here — records just have to outlive nothing.
}

rt::StudyId StudyManager::submit(StudySpec spec) {
  rt::StudyOptions study_options;
  study_options.name = spec.name;
  study_options.weight = spec.weight;
  study_options.max_running = spec.max_running;
  const rt::StudySession session = runtime_.open_study(std::move(study_options));

  Record record;
  record.spec = std::move(spec);
  record.session = session;
  const rt::StudyId id = session.id();
  records_.emplace(id, std::move(record));
  order_.push_back(id);
  return id;
}

std::size_t StudyManager::active_count() const {
  std::size_t n = 0;
  for (const auto& [_, record] : records_)
    if (record.live()) ++n;
  return n;
}

void StudyManager::emit(StudyEvent::Kind kind, rt::StudyId id, const Record& record,
                        const hpo::Trial* trial) {
  if (!tap_) return;
  StudyEvent event;
  event.kind = kind;
  event.study = id;
  event.state = record.state;
  event.trial = trial;
  event.trials_done = record.trials_done();
  tap_(event);
}

void StudyManager::start(Record& record) {
  const StudySpec& spec = record.spec;
  if (spec.algorithm == "halving" || spec.algorithm == "hyperband") {
    // Successive halving is a one-bracket hyperband.
    hpo::HalvingOptions halving = spec.halving;
    halving.driver = spec.driver;
    hpo::HyperbandOptions hyperband = spec.hyperband;
    hyperband.driver = spec.driver;
    record.pump = std::make_unique<hpo::HyperbandRun>(
        record.session, dataset_, spec.space,
        spec.algorithm == "halving" ? std::vector<hpo::HalvingOptions>{halving}
                                    : hpo::hyperband_plan(hyperband));
  } else {
    // Point search: the algorithm object holds a reference into
    // record.spec.space, which lives exactly as long as the record.
    record.algorithm = hpo::make_search_algorithm(spec.algorithm, record.spec.space, spec.budget,
                                                  spec.driver.seed);
    record.pump =
        std::make_unique<hpo::StudyRun>(record.session, dataset_, spec.driver, *record.algorithm);
  }
  record.state = StudyState::Running;
  if (record.start_paused) {
    // pause() landed while Queued: admit with refills held and the ready
    // queue paused, so no trial dispatches until resume().
    record.pump->set_refill_paused(true);
    record.session.pause();
    record.state = StudyState::Paused;
  }
  record.pump->start();
  log_info("service", "study {} '{}' admitted ({}, {} in flight{})", record.session.id(),
           record.session.name(), spec.algorithm, record.pump->inflight().size(),
           record.start_paused ? ", paused" : "");
  emit(StudyEvent::Kind::Admitted, record.session.id(), record);
  if (record.state == StudyState::Running && !record.pump->active())
    finish(record);  // e.g. fully replayed from checkpoint
}

void StudyManager::finish(Record& record) {
  record.outcome = record.pump->finish();
  record.state = StudyState::Finished;
  log_info("service", "study {} '{}' finished: {} trials, best {:.3f}", record.session.id(),
           record.session.name(), record.outcome.trials.size(),
           record.outcome.best() ? record.outcome.best()->result.final_val_accuracy : 0.0);
  emit(StudyEvent::Kind::StateChanged, record.session.id(), record);
}

void StudyManager::admit() {
  if (admission_paused_) return;
  for (const rt::StudyId id : order_) {
    if (options_.max_active > 0 && active_count() >= options_.max_active) break;
    Record& record = records_.at(id);
    if (record.state == StudyState::Queued) start(record);
  }
}

std::vector<rt::Future> StudyManager::collect_inflight() const {
  // Every in-flight trial of every active study. Paused studies still get
  // their in-flight completions consumed — an attempt that was already
  // running when the pause landed finishes and commits (pause holds the
  // *ready* queue, it never aborts work).
  std::vector<rt::Future> futures;
  for (const auto& [_, record] : records_)
    if (record.live())
      for (const rt::Future& f : record.pump->inflight()) futures.push_back(f);
  return futures;
}

void StudyManager::route(const rt::Future& finished) {
  // Route by the study tag the task carried through the engine.
  const rt::StudyId owner = runtime_.graph().task(finished.producer).study;
  const auto it = records_.find(owner);
  if (it == records_.end() || !it->second.pump || !it->second.pump->owns(finished)) {
    // A completion surfaced for a study that does not recognise it: a
    // cross-study leak. Count it (CI asserts zero) and drop it.
    ++leaked_;
    log_warn("service", "leaked completion: task {} tagged study {}", finished.producer, owner);
    return;
  }
  Record& record = it->second;
  record.pump->on_trial_complete(finished);
  ++routed_;
  emit(StudyEvent::Kind::TrialComplete, owner, record, record.pump->last_trial());
  if (record.state == StudyState::Running && !record.pump->active()) finish(record);
}

bool StudyManager::step() { return step_until(-1.0) == StepOutcome::Progress; }

StudyManager::StepOutcome StudyManager::step_for(double seconds) {
  return step_until(std::max(0.0, seconds));
}

StudyManager::StepOutcome StudyManager::step_until(double seconds) {
  admit();

  const std::vector<rt::Future> futures = collect_inflight();
  if (futures.empty()) {
    // Nothing in flight anywhere. Running studies with no futures are
    // drained state machines that never went inactive — a pump bug.
    bool progressed = false;
    for (auto& [_, record] : records_)
      if (record.state == StudyState::Running && !record.pump->active()) {
        finish(record);
        progressed = true;
      }
    if (progressed) return StepOutcome::Progress;
    for (const auto& [_, record] : records_)
      if (record.state == StudyState::Queued || record.live())
        return StepOutcome::Idle;  // parked: paused fleet, or admission gated
    return StepOutcome::Drained;
  }

  const rt::Future finished =
      seconds < 0 ? runtime_.wait_any(futures) : runtime_.wait_any_for(futures, seconds);
  if (finished.producer == rt::kNoTask) return StepOutcome::Idle;  // bound expired
  route(finished);
  return StepOutcome::Progress;
}

void StudyManager::run_all() {
  while (true) {
    bool any_runnable = false;
    for (const auto& [_, record] : records_)
      if (record.state == StudyState::Queued || record.state == StudyState::Running ||
          (record.state == StudyState::Paused && !record.pump->inflight().empty()))
        any_runnable = true;
    if (!any_runnable) return;
    step();
  }
}

void StudyManager::pause(rt::StudyId id) {
  Record& record = records_.at(id);
  if (record.state == StudyState::Queued) {
    record.start_paused = true;  // admit() starts the study paused
    return;
  }
  if (record.state != StudyState::Running) return;
  record.pump->set_refill_paused(true);
  record.session.pause();
  record.state = StudyState::Paused;
  emit(StudyEvent::Kind::StateChanged, id, record);
}

void StudyManager::resume(rt::StudyId id) {
  Record& record = records_.at(id);
  if (record.state == StudyState::Queued) {
    record.start_paused = false;
    return;
  }
  if (record.state != StudyState::Paused) return;
  record.session.resume();
  record.state = StudyState::Running;
  record.start_paused = false;
  record.pump->set_refill_paused(false);
  emit(StudyEvent::Kind::StateChanged, id, record);
  if (!record.pump->active()) finish(record);
}

void StudyManager::kill(rt::StudyId id) {
  Record& record = records_.at(id);
  if (record.state == StudyState::Finished || record.state == StudyState::Killed) return;
  if (record.state == StudyState::Paused) record.session.resume();
  if (record.state == StudyState::Queued) {
    record.state = StudyState::Killed;
    emit(StudyEvent::Kind::StateChanged, id, record);
    return;
  }
  record.pump->abandon();
  // Sweep the whole study: abandon() cancels the trials the pump knows
  // about; cancel_all() also catches study-tagged helpers (visualisation
  // tasks, stage chains) the pump only holds indirectly.
  const std::size_t swept = record.session.cancel_all();
  record.outcome = record.pump->finish();
  record.state = StudyState::Killed;
  log_info("service", "study {} '{}' killed ({} tasks cancelled, {} trials kept)", id,
           record.session.name(), swept, record.outcome.trials.size());
  emit(StudyEvent::Kind::StateChanged, id, record);
}

StudyState StudyManager::state(rt::StudyId id) const { return records_.at(id).state; }

StudyStatus StudyManager::status(rt::StudyId id) const {
  const Record& record = records_.at(id);
  StudyStatus s;
  s.id = id;
  s.name = record.session.name();
  s.algorithm = record.spec.algorithm;
  s.state = record.state;
  s.trials_done = record.trials_done();
  return s;
}

ManagerStats StudyManager::stats() const {
  ManagerStats stats;
  stats.total_studies = records_.size();
  for (const auto& [_, record] : records_) {
    switch (record.state) {
      case StudyState::Queued: ++stats.queued; break;
      case StudyState::Running: ++stats.running; break;
      case StudyState::Paused: ++stats.paused; break;
      case StudyState::Finished: ++stats.finished; break;
      case StudyState::Killed: ++stats.killed; break;
    }
    stats.trials_done += record.trials_done();
    if (record.live()) stats.inflight += record.pump->inflight().size();
  }
  stats.completions_routed = routed_;
  stats.leaked_completions = leaked_;
  return stats;
}

std::vector<rt::StudyId> StudyManager::studies() const { return order_; }

const hpo::HpoOutcome& StudyManager::outcome(rt::StudyId id) const {
  const Record& record = records_.at(id);
  if (record.state != StudyState::Finished && record.state != StudyState::Killed)
    throw std::logic_error("StudyManager::outcome: study " + std::to_string(id) +
                           " is still " + study_state_name(record.state));
  return record.outcome;
}

}  // namespace chpo::service
