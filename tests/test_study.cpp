// Study-session and StudyManager tests: per-study task tagging and
// completion routing, cancellation isolation, engine fair-share/quota/
// pause at the scheduler seam, cooperative multi-study runs with
// different algorithms on both backends, kill mid-rung, pause/resume and
// crash-resume determinism, one-study manager runs that match each
// blocking entry point, and two-study isolation under fault injection
// (the chaos face of the multi-study contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "hpo/hyperband.hpp"
#include "hpo/report.hpp"
#include "ml/cost_model.hpp"
#include "ml/dataset.hpp"
#include "runtime/runtime.hpp"
#include "runtime/study_session.hpp"
#include "service/study_manager.hpp"

namespace chpo {
namespace {

rt::RuntimeOptions small_cluster(bool simulate, unsigned cpus = 4, std::size_t nodes = 2) {
  rt::RuntimeOptions opts;
  cluster::NodeSpec node;
  node.name = "n";
  node.cpus = cpus;
  opts.cluster = cluster::homogeneous(nodes, node);
  opts.simulate = simulate;
  return opts;
}

rt::TaskDef noop_task(double sim_cost = 1.0) {
  rt::TaskDef def;
  def.name = "noop";
  def.body = [](rt::TaskContext&) -> std::any { return 0; };
  def.cost = [sim_cost](const rt::Placement&, const cluster::NodeSpec&) { return sim_cost; };
  return def;
}

hpo::SearchSpace tiny_space() {
  return hpo::SearchSpace::from_json_text(R"({
    "optimizer": ["Adam", "SGD"],
    "num_epochs": [2, 3],
    "batch_size": [16, 32]
  })");
}

// ---------------------------------------------------------------------------
// Session-level tagging, routing, isolation
// ---------------------------------------------------------------------------

TEST(StudySession, TasksCarryTheirStudyTagAndCompletionsRoutePerStudy) {
  for (const bool simulate : {false, true}) {
    rt::Runtime runtime(small_cluster(simulate));
    rt::StudySession a = runtime.open_study({.name = "alpha"});
    rt::StudySession b = runtime.open_study({.name = "beta"});
    EXPECT_NE(a.id(), b.id());
    EXPECT_EQ(a.name(), "alpha");

    // Each study's completions route back through its own tasks' callbacks.
    std::vector<rt::TaskId> a_done, b_done;
    std::vector<rt::Future> a_tasks, b_tasks;
    for (int i = 0; i < 3; ++i)
      a_tasks.push_back(a.submit(noop_task(), {}, [&a_done](const rt::Future& f, rt::TaskState) {
        a_done.push_back(f.producer);
      }));
    for (int i = 0; i < 2; ++i)
      b_tasks.push_back(b.submit(noop_task(), {}, [&b_done](const rt::Future& f, rt::TaskState) {
        b_done.push_back(f.producer);
      }));

    for (const rt::Future& f : a_tasks) EXPECT_EQ(runtime.graph().task(f.producer).study, a.id());
    for (const rt::Future& f : b_tasks) EXPECT_EQ(runtime.graph().task(f.producer).study, b.id());

    a.barrier();
    b.barrier();
    EXPECT_EQ(a_done.size(), 3u);
    EXPECT_EQ(b_done.size(), 2u);
    for (const rt::TaskId t : a_done) EXPECT_EQ(runtime.graph().task(t).study, a.id());
    for (const rt::TaskId t : b_done) EXPECT_EQ(runtime.graph().task(t).study, b.id());
  }
}

TEST(StudySession, CancelAllTearsDownExactlyOneStudy) {
  for (const bool simulate : {false, true}) {
    rt::Runtime runtime(small_cluster(simulate, /*cpus=*/1, /*nodes=*/1));
    rt::StudySession a = runtime.open_study({.name = "doomed"});
    rt::StudySession b = runtime.open_study({.name = "survivor"});

    // One slot: most of these stay Ready, so cancel_all has work to do.
    std::vector<rt::Future> a_tasks, b_tasks;
    for (int i = 0; i < 4; ++i) a_tasks.push_back(a.submit(noop_task()));
    for (int i = 0; i < 4; ++i) b_tasks.push_back(b.submit(noop_task()));

    const std::size_t cancelled = a.cancel_all();
    EXPECT_GT(cancelled, 0u);
    b.barrier();
    a.barrier();  // cancelled tasks are terminal too

    for (const rt::Future& f : b_tasks)
      EXPECT_EQ(runtime.graph().task(f.producer).state, rt::TaskState::Done)
          << "neighbour study lost task " << f.producer << " to a foreign cancel";
    std::size_t a_cancelled = 0;
    for (const rt::Future& f : a_tasks)
      if (runtime.graph().task(f.producer).state == rt::TaskState::Cancelled) ++a_cancelled;
    EXPECT_EQ(a_cancelled, cancelled);
    EXPECT_EQ(runtime.lineage_violations(), 0u);
  }
}

TEST(StudySession, PauseHoldsReadyTasksUntilResume) {
  rt::Runtime runtime(small_cluster(/*simulate=*/true));
  rt::StudySession held = runtime.open_study({.name = "held"});
  rt::StudySession flow = runtime.open_study({.name = "flow"});

  held.pause();
  EXPECT_TRUE(held.paused());
  const rt::Future parked = held.submit(noop_task());
  const rt::Future runs = flow.submit(noop_task());
  flow.barrier();

  EXPECT_EQ(runtime.graph().task(runs.producer).state, rt::TaskState::Done);
  EXPECT_EQ(runtime.graph().task(parked.producer).state, rt::TaskState::Ready)
      << "paused study's task was scheduled anyway";

  held.resume();
  held.barrier();
  EXPECT_EQ(runtime.graph().task(parked.producer).state, rt::TaskState::Done);
}

/// Studies of the first 8 TaskSchedule events when a `heavy` and a `light`
/// study of 8 tasks each share one 4-cpu node under the fifo scheduler.
std::size_t heavy_in_first_8(double heavy_weight, double light_weight) {
  rt::RuntimeOptions options = small_cluster(/*simulate=*/true, /*cpus=*/4, /*nodes=*/1);
  options.scheduler = "fifo";
  rt::Runtime runtime(std::move(options));
  rt::StudySession heavy = runtime.open_study({.name = "heavy", .weight = heavy_weight});
  rt::StudySession light = runtime.open_study({.name = "light", .weight = light_weight});
  for (int i = 0; i < 8; ++i) heavy.submit(noop_task());
  for (int i = 0; i < 8; ++i) light.submit(noop_task());
  heavy.barrier();
  light.barrier();

  std::vector<rt::StudyId> schedule_order;
  for (const trace::Event& e : runtime.trace().events())
    if (e.kind == trace::EventKind::TaskSchedule) schedule_order.push_back(e.study);
  EXPECT_EQ(schedule_order.size(), 16u);
  if (schedule_order.size() < 8) return 0;
  return static_cast<std::size_t>(
      std::count(schedule_order.begin(), schedule_order.begin() + 8, heavy.id()));
}

TEST(StudySession, FairShareWeightsSkewScheduling) {
  // Fifo consumes the engine's weighted-deficit order as is. Every round
  // starts with both studies idle, so 3:1 weights grant H L H H (ties go
  // to the lower StudyId) and two 4-slot rounds start 6 heavy tasks; equal
  // weights alternate H L H L and start 4. Under the priority scheduler
  // heavy's lower task ids would take all 8 whatever the weights.
  EXPECT_EQ(heavy_in_first_8(3.0, 1.0), 6u) << "3:1 weights should front-load the heavy study";
  EXPECT_EQ(heavy_in_first_8(1.0, 1.0), 4u) << "equal weights should alternate";
}

TEST(StudySession, MaxRunningQuotaCapsConcurrency) {
  // 8 free cores but a quota of 2: TaskRun spans of the study must never
  // overlap more than 2 deep.
  rt::Runtime runtime(small_cluster(/*simulate=*/true, /*cpus=*/8, /*nodes=*/1));
  rt::StudySession capped = runtime.open_study({.name = "capped", .max_running = 2});
  for (int i = 0; i < 6; ++i) capped.submit(noop_task());
  capped.barrier();

  std::vector<std::pair<double, double>> spans;
  for (const trace::Event& e : runtime.trace().events())
    if (e.kind == trace::EventKind::TaskRun && e.study == capped.id())
      spans.emplace_back(e.t_start, e.t_end);
  ASSERT_EQ(spans.size(), 6u);
  for (const auto& [start, _] : spans) {
    int concurrent = 0;
    for (const auto& [s, t] : spans)
      if (s <= start && start < t) ++concurrent;
    EXPECT_LE(concurrent, 2) << "quota of 2 exceeded at t=" << start;
  }
}

// ---------------------------------------------------------------------------
// StudyManager: concurrent studies, lifecycle, determinism
// ---------------------------------------------------------------------------

service::StudySpec point_spec(const std::string& name, const std::string& algorithm,
                              std::size_t budget, std::uint64_t seed) {
  service::StudySpec spec;
  spec.name = name;
  spec.algorithm = algorithm;
  spec.space = tiny_space();
  spec.budget = budget;
  spec.driver.epoch_cap = 1;
  spec.driver.seed = seed;
  return spec;
}

TEST(StudyManager, TwoStudiesWithDifferentAlgorithmsShareOneRuntime) {
  for (const bool simulate : {false, true}) {
    const ml::Dataset dataset = ml::make_mnist_like(80, 20, 1);
    service::ManagerOptions options;
    options.runtime = small_cluster(simulate);
    service::StudyManager manager(std::move(options), dataset);

    service::StudySpec grid = point_spec("grid", "grid", 0, 5);
    if (simulate) grid.driver.workload = ml::mnist_paper_model();
    service::StudySpec random = point_spec("random", "random", 5, 7);
    if (simulate) random.driver.workload = ml::mnist_paper_model();
    const rt::StudyId g = manager.submit(std::move(grid));
    const rt::StudyId r = manager.submit(std::move(random));
    manager.run_all();

    EXPECT_EQ(manager.state(g), service::StudyState::Finished);
    EXPECT_EQ(manager.state(r), service::StudyState::Finished);
    EXPECT_EQ(manager.outcome(g).trials.size(), 8u);  // full grid
    EXPECT_EQ(manager.outcome(r).trials.size(), 5u);
    ASSERT_NE(manager.outcome(g).best(), nullptr);
    ASSERT_NE(manager.outcome(r).best(), nullptr);
    EXPECT_EQ(manager.leaked_completions(), 0u);
    EXPECT_EQ(manager.lineage_violations(), 0u);
  }
}

TEST(StudyManager, KillMidRungCancelsOnlyThatStudy) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 2);
  service::ManagerOptions options;
  options.runtime = small_cluster(/*simulate=*/true, /*cpus=*/4, /*nodes=*/1);
  service::StudyManager manager(std::move(options), dataset);

  service::StudySpec halving = point_spec("halving", "halving", 0, 11);
  halving.driver.workload = ml::mnist_paper_model();
  halving.halving.initial_configs = 6;
  halving.halving.initial_epochs = 1;
  halving.halving.max_epochs = 4;
  service::StudySpec random = point_spec("random", "random", 6, 13);
  random.driver.workload = ml::mnist_paper_model();
  const rt::StudyId h = manager.submit(std::move(halving));
  const rt::StudyId r = manager.submit(std::move(random));

  // Drive a few completions so the halving study is genuinely mid-rung,
  // then kill it while trials are still in flight.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(manager.step());
  ASSERT_EQ(manager.state(h), service::StudyState::Running);
  manager.kill(h);
  EXPECT_EQ(manager.state(h), service::StudyState::Killed);
  manager.run_all();

  EXPECT_EQ(manager.state(r), service::StudyState::Finished);
  EXPECT_EQ(manager.outcome(r).trials.size(), 6u);
  for (const hpo::Trial& t : manager.outcome(r).trials)
    EXPECT_FALSE(t.failed) << "survivor study trial " << t.index << " was damaged by the kill";
  // The killed study kept whatever completed before the kill.
  EXPECT_LT(manager.outcome(h).trials.size(), 18u);
  EXPECT_EQ(manager.leaked_completions(), 0u);
  EXPECT_EQ(manager.lineage_violations(), 0u);
}

struct BestSnapshot {
  double accuracy = -1.0;
  std::string config;
  std::size_t trials = 0;
};

TEST(StudyManager, PauseResumeReproducesBestBitIdentically) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 3);

  const auto run_once = [&](bool with_pause, BestSnapshot& out) {
    service::ManagerOptions options;
    options.runtime = small_cluster(/*simulate=*/false);
    service::StudyManager manager(std::move(options), dataset);
    const rt::StudyId id = manager.submit(point_spec("solo", "random", 6, 17));
    if (with_pause) {
      ASSERT_TRUE(manager.step());
      manager.pause(id);
      // Paused: in-flight completions still drain, no refills happen.
      while (manager.state(id) == service::StudyState::Paused && manager.step()) {
      }
      manager.resume(id);
    }
    manager.run_all();
    ASSERT_EQ(manager.state(id), service::StudyState::Finished);
    const hpo::HpoOutcome& outcome = manager.outcome(id);
    ASSERT_NE(outcome.best(), nullptr);
    out.accuracy = outcome.best()->result.final_val_accuracy;
    out.config = hpo::config_brief(outcome.best()->config);
    out.trials = outcome.trials.size();
  };

  BestSnapshot plain, interrupted;
  run_once(false, plain);
  run_once(true, interrupted);
  EXPECT_EQ(interrupted.trials, plain.trials);
  EXPECT_EQ(interrupted.config, plain.config);
  EXPECT_EQ(interrupted.accuracy, plain.accuracy)
      << "pause/resume changed the search result";
}

TEST(StudyManager, CrashResumeReplaysCheckpointBitIdentically) {
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 4);
  const std::string checkpoint = testing::TempDir() + "study_resume.json";
  std::remove(checkpoint.c_str());

  // Grid: every config is unique, so config-keyed checkpoint replay is
  // exact. (Random search may draw duplicates, and a duplicate replays the
  // first occurrence's result instead of retraining — by design.)
  service::StudySpec spec = point_spec("resumable", "grid", 0, 19);
  spec.driver.checkpoint_path = checkpoint;

  // Uninterrupted reference run (fresh checkpoint).
  double reference_best = 0.0;
  std::string reference_config;
  {
    service::ManagerOptions options;
    options.runtime = small_cluster(false);
    service::StudyManager manager(std::move(options), dataset);
    const rt::StudyId id = manager.submit(spec);
    manager.run_all();
    const hpo::HpoOutcome& outcome = manager.outcome(id);
    ASSERT_NE(outcome.best(), nullptr);
    reference_best = outcome.best()->result.final_val_accuracy;
    reference_config = hpo::config_brief(outcome.best()->config);
  }
  std::remove(checkpoint.c_str());

  // "Crash": consume a couple of completions, then drop the manager on the
  // floor — only the checkpointed prefix survives.
  {
    service::ManagerOptions options;
    options.runtime = small_cluster(false);
    service::StudyManager manager(std::move(options), dataset);
    manager.submit(spec);
    ASSERT_TRUE(manager.step());
    ASSERT_TRUE(manager.step());
  }

  // Fresh manager, same spec: replays the checkpoint, runs the rest.
  {
    service::ManagerOptions options;
    options.runtime = small_cluster(false);
    service::StudyManager manager(std::move(options), dataset);
    const rt::StudyId id = manager.submit(spec);
    manager.run_all();
    const hpo::HpoOutcome& outcome = manager.outcome(id);
    EXPECT_EQ(outcome.trials.size(), 8u);  // full grid
    const auto replayed =
        std::count_if(outcome.trials.begin(), outcome.trials.end(),
                      [](const hpo::Trial& t) { return t.attempts == 0; });
    EXPECT_GE(replayed, 1) << "nothing was replayed from the checkpoint";
    ASSERT_NE(outcome.best(), nullptr);
    EXPECT_EQ(outcome.best()->result.final_val_accuracy, reference_best);
    EXPECT_EQ(hpo::config_brief(outcome.best()->config), reference_config);
  }
  std::remove(checkpoint.c_str());
}

// ---------------------------------------------------------------------------
// One path: a one-study StudyManager reproduces each blocking entry point
// ---------------------------------------------------------------------------

/// The fields a study's result is judged by, flattened in report order.
struct TrialKey {
  std::string config;
  int epochs = 0;
  double accuracy = 0.0;
  bool operator==(const TrialKey&) const = default;
};

TrialKey key_of(const hpo::Trial& t) {
  return {json::serialize(t.config), t.result.epochs_run, t.result.final_val_accuracy};
}

void append_rungs(const hpo::HalvingOutcome& bracket, std::vector<TrialKey>& keys) {
  for (const hpo::RungResult& rung : bracket.rungs)
    for (const hpo::Trial& t : rung.trials) keys.push_back(key_of(t));
}

class OnePath : public testing::TestWithParam<const char*> {};

TEST_P(OnePath, ManagerMatchesBlockingEntryPoint) {
  const std::string algorithm = GetParam();
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 8);
  service::StudySpec spec = point_spec("solo", algorithm, 5, 31);
  spec.driver.workload = ml::mnist_paper_model();
  spec.halving.initial_configs = 6;
  spec.halving.initial_epochs = 1;
  spec.halving.max_epochs = 4;
  spec.hyperband.max_epochs = 9;

  // Blocking entry point on a fresh Runtime.
  std::vector<TrialKey> blocking;
  double blocking_best = -1.0;
  {
    rt::Runtime runtime(small_cluster(/*simulate=*/true));
    if (algorithm == "halving") {
      hpo::HalvingOptions options = spec.halving;
      options.driver = spec.driver;
      const hpo::HalvingOutcome outcome =
          hpo::successive_halving(runtime.main_study(), dataset, spec.space, options);
      append_rungs(outcome, blocking);
      blocking_best = outcome.best_accuracy;
    } else if (algorithm == "hyperband") {
      hpo::HyperbandOptions options = spec.hyperband;
      options.driver = spec.driver;
      const hpo::HyperbandOutcome outcome =
          hpo::hyperband(runtime.main_study(), dataset, spec.space, options);
      for (const hpo::HalvingOutcome& bracket : outcome.brackets) append_rungs(bracket, blocking);
      blocking_best = outcome.best_accuracy;
    } else {
      const auto search =
          hpo::make_search_algorithm(algorithm, spec.space, spec.budget, spec.driver.seed);
      hpo::HpoDriver driver(runtime.main_study(), dataset, spec.driver);
      const hpo::HpoOutcome outcome = driver.run(*search);
      for (const hpo::Trial& t : outcome.trials) blocking.push_back(key_of(t));
      ASSERT_NE(outcome.best(), nullptr);
      blocking_best = outcome.best()->result.final_val_accuracy;
    }
  }

  // The same spec as the only study of a StudyManager.
  service::ManagerOptions options;
  options.runtime = small_cluster(/*simulate=*/true);
  service::StudyManager manager(std::move(options), dataset);
  const rt::StudyId id = manager.submit(spec);
  manager.run_all();
  ASSERT_EQ(manager.state(id), service::StudyState::Finished);
  const hpo::HpoOutcome& outcome = manager.outcome(id);
  std::vector<TrialKey> managed;
  for (const hpo::Trial& t : outcome.trials) managed.push_back(key_of(t));

  ASSERT_FALSE(blocking.empty());
  EXPECT_TRUE(managed == blocking) << algorithm << ": trial sequences differ";
  // Best: the first trial, in report order, at the best accuracy.
  ASSERT_NE(outcome.best(), nullptr);
  EXPECT_EQ(outcome.best()->result.final_val_accuracy, blocking_best);
  const auto first_best = std::find_if(blocking.begin(), blocking.end(), [&](const TrialKey& k) {
    return k.accuracy == blocking_best;
  });
  ASSERT_NE(first_best, blocking.end());
  EXPECT_EQ(json::serialize(outcome.best()->config), first_best->config);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, OnePath,
                         testing::Values("grid", "random", "halving", "hyperband"));

// ---------------------------------------------------------------------------
// Chaos: two studies under fault injection stay isolated
// ---------------------------------------------------------------------------

TEST(StudyManager, TwoStudyIsolationUnderFaultInjection) {
  for (const bool simulate : {false, true}) {
    const ml::Dataset dataset = ml::make_mnist_like(80, 20, 6);
    service::ManagerOptions options;
    options.runtime = small_cluster(simulate);
    // Probabilistic per-attempt failures; retries must absorb them.
    options.runtime.injector = rt::FaultInjector(99, /*task_failure_prob=*/0.15);
    options.runtime.fault_policy.max_attempts = 6;
    service::StudyManager manager(std::move(options), dataset);

    service::StudySpec a = point_spec("chaos-random", "random", 5, 23);
    service::StudySpec b = point_spec("chaos-grid", "grid", 0, 29);
    if (simulate) {
      a.driver.workload = ml::mnist_paper_model();
      b.driver.workload = ml::mnist_paper_model();
    }
    const rt::StudyId ra = manager.submit(std::move(a));
    const rt::StudyId rb = manager.submit(std::move(b));
    manager.run_all();

    EXPECT_EQ(manager.state(ra), service::StudyState::Finished);
    EXPECT_EQ(manager.state(rb), service::StudyState::Finished);
    EXPECT_EQ(manager.outcome(ra).trials.size(), 5u);
    EXPECT_EQ(manager.outcome(rb).trials.size(), 8u);
    EXPECT_EQ(manager.leaked_completions(), 0u)
        << "a completion crossed studies under fault injection";
    EXPECT_EQ(manager.lineage_violations(), 0u);

    // Retries happened *somewhere* (otherwise the injector was a no-op and
    // this test proves nothing) and every retry stayed inside its study.
    std::size_t retries = 0;
    std::set<rt::StudyId> retry_studies;
    for (const trace::Event& e : manager.trace().events())
      if (e.kind == trace::EventKind::TaskRetry) {
        ++retries;
        retry_studies.insert(e.study);
      }
    EXPECT_GT(retries, 0u);
    for (const rt::StudyId s : retry_studies) EXPECT_TRUE(s == ra || s == rb);
  }
}

// ---------------------------------------------------------------------------
// Thread backend: bounded steps over a paused study with queued trials
// ---------------------------------------------------------------------------

TEST(StudyManager, ThreadBackedPausedStudySurvivesBoundedSteps) {
  // The daemon's loop: step_for over a study paused while its trials are
  // still queued. With nothing runnable a bounded step must come back at
  // its bound (Idle), not throw.
  const ml::Dataset dataset = ml::make_mnist_like(80, 20, 7);
  service::ManagerOptions options;
  options.runtime = small_cluster(/*simulate=*/false, /*cpus=*/1, /*nodes=*/1);
  service::StudyManager manager(std::move(options), dataset);
  service::StudySpec spec = point_spec("held", "grid", 0, 31);
  spec.space = hpo::SearchSpace::from_json_text(R"({
    "optimizer": ["Adam", "SGD"],
    "num_epochs": [2],
    "batch_size": [16, 32]
  })");
  const rt::StudyId id = manager.submit(std::move(spec));

  // A zero bound admits the study and submits its trials but starts none.
  manager.step_for(0.0);
  ASSERT_EQ(manager.state(id), service::StudyState::Running);
  manager.pause(id);
  for (int i = 0; i < 20; ++i)
    EXPECT_NE(manager.step_for(0.05), service::StudyManager::StepOutcome::Drained);
  EXPECT_EQ(manager.state(id), service::StudyState::Paused);

  manager.resume(id);
  manager.run_all();
  EXPECT_EQ(manager.state(id), service::StudyState::Finished);
  EXPECT_EQ(manager.outcome(id).trials.size(), 4u);
  EXPECT_EQ(manager.leaked_completions(), 0u);
}

}  // namespace
}  // namespace chpo
