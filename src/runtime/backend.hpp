// Backend interface: who owns time.
//
// The engine decides *what* happens; a backend decides *when*. The threaded
// backend executes task bodies on real host threads and reads a wall clock;
// the simulation backend advances a virtual clock by per-task cost models.
// Neither drives the engine: Runtime::drive is the one loop that runs
// engine duties, schedules, launches the dispatches through launch() and
// feeds the attempt ends wait() reports back into the engine. A backend
// only starts attempts and reports when they end, so both drive the engine
// to the same logical outcome for the same submission sequence — the test
// suite asserts this equivalence.
//
// launch() and wait() require the g_engine_ctx capability: backends never
// acquire the coordinator role themselves, they inherit it from the
// Runtime::drive call that invoked them (see engine_context.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/types.hpp"

namespace chpo::rt {

/// One attempt that ended on a backend, as Engine::complete_attempt takes it.
struct AttemptEnd {
  std::uint64_t attempt_id = 0;
  AttemptResult result;
  double start = 0.0;  ///< when the body began (after staging)
  double end = 0.0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Current time in seconds (wall-clock since construction, or virtual).
  virtual double now() const = 0;

  /// Start one attempt the engine placed. `inputs_staged`: a same-node
  /// retry whose inputs are already on the node (no staging cost).
  virtual void launch(const Dispatch& dispatch, bool inputs_staged)
      CHPO_REQUIRES(g_engine_ctx) = 0;

  /// Append to `out` the attempt ends that land by the absolute time
  /// `until` (+inf: no bound), blocking until at least one does or `until`
  /// passes. The simulator hands back at most one end per call and, when
  /// none lands by `until`, advances its clock to `until`.
  virtual void wait(double until, std::vector<AttemptEnd>& out) CHPO_REQUIRES(g_engine_ctx) = 0;

  /// True for the discrete-event simulator.
  virtual bool simulated() const = 0;

  /// Worker-side work-stealing counter (jobs a worker took from another
  /// worker's queue). 0 where the concept does not apply — the simulator
  /// runs bodies on the coordinator. Monitoring/tests only; unannotated
  /// because it reads an atomic, not engine state.
  virtual std::uint64_t steals() const { return 0; }
};

}  // namespace chpo::rt
