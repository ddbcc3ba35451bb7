#include "runtime/sim_backend.hpp"

#include <algorithm>
#include <limits>
#include <string>

namespace chpo::rt {

namespace {

struct EvLater {
  template <typename Ev>
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.end.end != b.end.end) return a.end.end > b.end.end;
    return a.seq > b.seq;
  }
};

}  // namespace

SimBackend::SimBackend(Engine& engine, SimOptions options)
    : engine_(engine), options_(options) {
  // Virtual-clock preemption happens at dispatch (the attempt's end event
  // is moved to its deadline), so the engine must not also arm reap
  // deadlines for these attempts. Node deaths/rejoins need no loading
  // here: the engine owns the membership timeline and surfaces it through
  // next_wakeup()/on_wakeup().
  // Construction happens on the coordinator thread (inside the Runtime
  // constructor), so the engine-context capability is ours to assert.
  EngineContextScope ctx(g_engine_ctx);
  engine_.set_backend_preempts_timeouts(true);
}

double SimBackend::task_duration(const TaskRecord& record, const Placement& placement) const {
  const TaskCost& cost = record.implementation_cost(record.active_variant);
  if (!cost) return options_.default_task_seconds;
  const auto& spec = engine_.resources().spec();
  const cluster::NodeSpec& node = spec.nodes.at(static_cast<std::size_t>(placement.node));
  const double seconds = cost(placement, node);
  return seconds > 0.0 ? seconds : 0.0;
}

void SimBackend::launch(const Dispatch& d, bool inputs_staged) {
  const TaskRecord& record = engine_.graph().task(d.task);
  const double staging = inputs_staged ? 0.0 : engine_.stage_inputs(d.task, d.placement.node, now_);
  const double duration = task_duration(record, d.placement);

  Ev ev;
  ev.seq = seq_++;
  ev.end.attempt_id = d.attempt_id;
  ev.end.start = now_ + staging;
  ev.end.end = ev.end.start + duration;
  if (options_.execute_bodies) {
    ev.end.result = engine_.execute_body(d.task, d.placement, /*simulated=*/true);
  } else {
    // Bodies skipped, but injected faults must still fire (fault studies
    // run with execute_bodies=false).
    ev.end.result = engine_.injection_result(d.task);
  }
  // @task(time_out) or the adaptive timeout: the runtime kills the attempt
  // at its deadline (virtual-clock preemption).
  const double timeout = engine_.attempt_timeout(d.task);
  if (timeout > 0.0 && duration > timeout) {
    ev.end.end = ev.end.start + timeout;
    ev.end.result = AttemptResult{};
    ev.end.result.error = "timeout after " + std::to_string(timeout) + "s";
  }
  events_.push_back(std::move(ev));
  std::push_heap(events_.begin(), events_.end(), EvLater{});
}

void SimBackend::wait(double until, std::vector<AttemptEnd>& out) {
  // One end per call: the caller runs engine duties and a scheduling pass
  // between any two ends, exactly as at their distinct virtual instants.
  if (!events_.empty() && events_.front().end.end <= until) {
    std::pop_heap(events_.begin(), events_.end(), EvLater{});
    now_ = std::max(now_, events_.back().end.end);
    out.push_back(std::move(events_.back().end));
    events_.pop_back();
    return;
  }
  // Nothing lands by `until`: the clock jumps there (an engine duty or the
  // caller's deadline is due at that instant).
  if (until < std::numeric_limits<double>::infinity()) now_ = std::max(now_, until);
}

}  // namespace chpo::rt
