// Discrete-event simulation backend.
//
// Executes the identical scheduling/fault/data semantics as the threaded
// backend, but time is virtual: each dispatched task occupies its resources
// for TaskDef::cost(placement, node) seconds on the simulated clock. This
// is how the paper's cluster-scale experiments (Figures 4-6 and 9: 48-core
// MareNostrum nodes, 28-node runs, GPU nodes) are reproduced on a laptop —
// see DESIGN.md §3 for the substitution argument.
//
// Task bodies still run (synchronously, at dispatch) so results such as
// trained-model accuracies are real; set execute_bodies=false for pure
// scheduling studies where only the timeline matters.
#pragma once

#include <vector>

#include "runtime/backend.hpp"

namespace chpo::rt {

struct SimOptions {
  bool execute_bodies = true;
  /// Virtual duration of a task whose TaskDef has no cost model.
  double default_task_seconds = 1.0;
};

class SimBackend : public Backend {
 public:
  explicit SimBackend(Engine& engine, SimOptions options = {});

  double now() const override { return now_; }
  void launch(const Dispatch& dispatch, bool inputs_staged) override
      CHPO_REQUIRES(g_engine_ctx);
  void wait(double until, std::vector<AttemptEnd>& out) override CHPO_REQUIRES(g_engine_ctx);
  bool simulated() const override { return true; }

 private:
  /// One queued attempt end. An end for an attempt the engine reaped (node
  /// death) completes as a stale no-op; timed engine duties are not events
  /// here — Runtime::drive bounds each wait by Engine::next_wakeup.
  struct Ev {
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal end times
    AttemptEnd end;
  };

  double task_duration(const TaskRecord& record, const Placement& placement) const;

  Engine& engine_;
  SimOptions options_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::vector<Ev> events_;  ///< min-heap by (end time, seq)
};

}  // namespace chpo::rt
