// Resumable study state machines.
//
// The engine is single-thread confined, so concurrent studies are
// cooperatively multiplexed from one coordinator, not run on N threads.
// Each study is a TrialPump: construction captures the plan, start()
// submits the initial window, and on_trial_complete() consumes exactly one
// finished trial and refills. A coordinator (service::StudyManager)
// interleaves any number of pumps over one engine with a single wait_any
// across all their in-flight futures, routing each completion to the pump
// whose study tag it carries.
//
// Two pumps exist: StudyRun drives one point-search algorithm (grid,
// random, GP-EI, TPE), and HyperbandRun steps through a plan of
// successive-halving brackets (plain halving is a plan of one). The
// blocking entry points — HpoDriver::run, successive_halving, hyperband —
// run their pump through drive_to_completion(), the one blocking loop.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "hpo/algorithms.hpp"
#include "hpo/driver.hpp"
#include "hpo/hyperband.hpp"
#include "reuse/planner.hpp"
#include "runtime/study_session.hpp"

namespace chpo::hpo {

/// The driving surface a study coordinator needs: submit work, expose
/// in-flight futures, consume completions one at a time, tear down.
class TrialPump {
 public:
  virtual ~TrialPump() = default;

  /// Submit the initial trial window (replaying any checkpoint first).
  virtual void start() = 0;

  /// True while the pump still has in-flight or submittable work. Drive
  /// on_trial_complete() with a member of inflight() until this is false,
  /// then call finish().
  virtual bool active() const = 0;

  /// Futures of every trial currently in flight. Empty while refills are
  /// paused and the window has drained — skip the pump until resumed.
  virtual const std::vector<rt::Future>& inflight() const = 0;

  /// True iff `finished` is one of this pump's in-flight trials — the
  /// demultiplex predicate a coordinator routes wait_any winners with.
  bool owns(const rt::Future& finished) const;

  /// Consume one finished trial (must satisfy owns()): record it, feed the
  /// algorithm, checkpoint, refill the window. Unknown futures throw —
  /// a completion leaking in from another study is a routing bug.
  virtual void on_trial_complete(const rt::Future& finished) = 0;

  /// Hold / release window refills (the driver half of a study pause; the
  /// engine half holds the study's ready queue). In-flight trials keep
  /// running either way. Resuming refills the window immediately.
  virtual void set_refill_paused(bool paused) = 0;

  /// Trials recorded so far, including checkpoint replays — live progress
  /// for service status while the pump still owns its outcome (the
  /// flattened HpoOutcome only exists after finish()).
  virtual std::size_t trials_done() const = 0;

  /// Most recently recorded trial, or nullptr before the first completion.
  /// Invalidated by the next on_trial_complete()/finish() call — consume
  /// it immediately (event taps do), never store it.
  virtual const Trial* last_trial() const = 0;

  /// Kill: cancel every in-flight trial of this study and stop refilling.
  /// active() turns false; finish() still returns the partial outcome.
  virtual void abandon() = 0;

  /// Finalise and return the outcome (plot task, reuse report, best-trial
  /// scan). Call once, after active() turned false or abandon().
  virtual HpoOutcome finish() = 0;
};

/// State machine behind HpoDriver::run: one SearchAlgorithm driven through
/// a window of experiment tasks on one StudySession.
class StudyRun : public TrialPump {
 public:
  /// `dataset` and `algorithm` must outlive the run (same contract as
  /// HpoDriver). The session's Runtime must outlive everything.
  StudyRun(rt::StudySession session, const ml::Dataset& dataset, DriverOptions options,
           SearchAlgorithm& algorithm);

  void start() override;
  bool active() const override;
  const std::vector<rt::Future>& inflight() const override { return inflight_futures_; }
  void on_trial_complete(const rt::Future& finished) override;
  std::size_t trials_done() const override { return outcome_.trials.size(); }
  const Trial* last_trial() const override {
    return outcome_.trials.empty() ? nullptr : &outcome_.trials.back();
  }
  void set_refill_paused(bool paused) override;
  void abandon() override;
  HpoOutcome finish() override;

 private:
  struct InFlight {
    int index = -1;
    Config config;
    rt::Future future;
    rt::Future vis;  ///< producer == kNoTask unless visualise is on
  };

  /// Pull configs until the window is full or the algorithm runs dry;
  /// replays checkpointed configs inline. Sets stopped_ when a replayed
  /// trial crosses the stop threshold.
  void top_up();
  /// Batch + reuse: drain the whole batch through the stage planner at
  /// once so shared prefixes merge into one tree.
  void start_batch_reuse();
  bool stop_hit(const Trial& trial) const;
  /// Record a trial served without a task (checkpoint or result cache):
  /// tell the algorithm, count the replay, honour the stop threshold.
  void record_replayed(int index, const Config& config, const ml::TrainResult& result);
  void cancel_outstanding();
  void rebuild_futures();

  rt::StudySession session_;
  const ml::Dataset& dataset_;
  DriverOptions options_;
  SearchAlgorithm& algorithm_;
  double t0_ = 0.0;
  HpoOutcome outcome_;
  std::vector<Trial> restored_;
  std::optional<reuse::StageExecutor> executor_;
  std::size_t window_ = 1;
  std::vector<InFlight> inflight_;
  std::vector<rt::Future> inflight_futures_;
  std::vector<rt::Future> vis_done_;
  int next_index_ = 0;
  bool exhausted_ = false;
  std::size_t replayed_ = 0;
  bool stopped_ = false;
  bool refill_paused_ = false;
  bool started_ = false;
};

/// One successive-halving bracket (defined in study_run.cpp).
class HalvingRun;

/// State machine behind successive_halving and hyperband: the brackets of
/// a plan (hyperband_plan(), or one HalvingOptions for plain halving) run
/// in sequence against one shared ResultCache.
class HyperbandRun : public TrialPump {
 public:
  HyperbandRun(rt::StudySession session, const ml::Dataset& dataset, SearchSpace space,
               std::vector<HalvingOptions> plan);
  ~HyperbandRun() override;

  void start() override;
  bool active() const override;
  const std::vector<rt::Future>& inflight() const override;
  void on_trial_complete(const rt::Future& finished) override;
  std::size_t trials_done() const override;
  const Trial* last_trial() const override;
  void set_refill_paused(bool paused) override;
  void abandon() override;
  /// Flatten every bracket's rungs into one HpoOutcome: trials in bracket
  /// and rung order with fresh sequential indices.
  HpoOutcome finish() override;

  /// Full per-bracket view (the blocking entry points return this).
  const HyperbandOutcome& outcome() const { return outcome_; }

 private:
  void start_bracket();
  void harvest_bracket();

  rt::StudySession session_;
  const ml::Dataset& dataset_;
  SearchSpace space_;
  std::vector<HalvingOptions> plan_;
  std::shared_ptr<reuse::ResultCache> cache_;
  double t0_ = 0.0;
  HyperbandOutcome outcome_;
  std::size_t next_ = 0;  ///< plan index of the next bracket to start
  std::unique_ptr<HalvingRun> bracket_;
  std::vector<rt::Future> empty_;
  bool stopped_ = false;
  bool refill_paused_ = false;
};

/// Drive `pump` to exhaustion on `session` and return its outcome: the one
/// blocking loop behind HpoDriver::run, successive_halving and hyperband.
HpoOutcome drive_to_completion(rt::StudySession session, TrialPump& pump);

}  // namespace chpo::hpo
