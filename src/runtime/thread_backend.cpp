#include "runtime/thread_backend.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

namespace chpo::rt {

namespace {

std::size_t pool_size_for(const ResourceState& resources) {
  // Peak concurrency: every task needs >= 1 core or >= 1 GPU slot.
  std::size_t total = 0;
  const auto& spec = resources.spec();
  for (std::size_t i = 0; i < spec.nodes.size(); ++i)
    total += spec.usable_cpus(i) + spec.usable_gpus(i);
  return std::clamp<std::size_t>(total, 1, 256);
}

}  // namespace

ThreadBackend::ThreadBackend(Engine& engine)
    : engine_(engine),
      pool_(std::make_unique<StealPool>(pool_size_for(engine.resources()),
                                        &ThreadBackend::run_job, this)) {}

void ThreadBackend::launch(const Dispatch& dispatch, bool /*inputs_staged*/) {
  // Timeouts are enforced by the coordinator: the engine reaps the attempt
  // at its deadline (Engine::on_wakeup) while the body is still running,
  // and this worker's eventual completion is then dropped as stale. The
  // body snapshot is taken here, on the coordinator, so the worker never
  // reads the TaskRecord the coordinator may mutate behind its back.
  StealPool::Job job;
  job.body = engine_.prepare_body(dispatch.task);
  job.placement = dispatch.placement;
  job.attempt_id = dispatch.attempt_id;
  job.start = now();
  pool_->submit(std::move(job));
}

void ThreadBackend::run_job(void* ctx, StealPool::Job&& job) {
  auto* self = static_cast<ThreadBackend*>(ctx);
  AttemptResult result = self->engine_.execute_prepared(job.body, job.placement, false);
  AttemptEnd end{.attempt_id = job.attempt_id,
                 .result = std::move(result),
                 .start = job.start,
                 .end = self->now()};
  {
    MutexLock lock(self->mutex_);
    self->completions_.push_back(std::move(end));
  }
  self->cv_.notify_one();
}

void ThreadBackend::wait(double until, std::vector<AttemptEnd>& out) {
  MutexLock lock(mutex_);
  // Condition re-checks are written as explicit while loops (not predicate
  // lambdas) so the thread-safety analysis sees every completions_ access
  // under the held MutexLock.
  if (until == std::numeric_limits<double>::infinity()) {
    while (completions_.empty()) cv_.wait(mutex_);
  } else {
    while (completions_.empty()) {
      // Absolute limit: recompute the remaining budget after every
      // spurious wakeup, give up once it is spent.
      const double seconds = until - now();
      if (seconds <= 0.0) break;
      if (cv_.wait_for(mutex_, std::chrono::duration<double>(seconds)) == std::cv_status::timeout)
        break;
    }
  }
  // Coalesce: drain *everything* queued so one coordinator round-trip
  // retires the whole wave (one lock hold, one notification flush) instead
  // of one end per lock acquisition.
  while (!completions_.empty()) {
    out.push_back(std::move(completions_.front()));
    completions_.pop_front();
  }
}

}  // namespace chpo::rt
