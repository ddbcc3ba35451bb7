// Threaded backend: real execution on host threads.
//
// Each dispatched task body runs on a worker thread from a sharded
// work-stealing pool sized to the cluster's total task concurrency (one
// queue per worker, dispatches sharded by placement node, idle workers
// steal). The coordinator (the thread inside Runtime::drive) performs all
// engine mutations; workers only execute body snapshots and enqueue attempt
// ends, so engine state needs no locking. wait() drains ends in batches:
// one coordinator round-trip retires every end queued since the last one
// instead of one end per lock acquisition.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "runtime/backend.hpp"
#include "runtime/steal_pool.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_annotations.hpp"

namespace chpo::rt {

class ThreadBackend : public Backend {
 public:
  explicit ThreadBackend(Engine& engine);

  /// Joins the worker pool before the mutex/condvar members are destroyed:
  /// a worker may still be inside cv_.notify_one() when a wait returns,
  /// and default member-order destruction would tear the condvar down
  /// first (caught by TSan).
  ~ThreadBackend() override { pool_.reset(); }

  double now() const override { return clock_.elapsed_seconds(); }
  void launch(const Dispatch& dispatch, bool inputs_staged) override
      CHPO_REQUIRES(g_engine_ctx);
  void wait(double until, std::vector<AttemptEnd>& out) override CHPO_REQUIRES(g_engine_ctx);
  std::uint64_t steals() const override { return pool_ ? pool_->steals() : 0; }
  bool simulated() const override { return false; }

 private:
  /// StealPool sink: runs one body snapshot on a worker thread and queues
  /// the completion. A static function (not a capturing lambda) so the
  /// per-dispatch path never allocates a type-erased callable.
  static void run_job(void* ctx, StealPool::Job&& job);

  Engine& engine_;
  Stopwatch clock_;
  std::unique_ptr<StealPool> pool_;
  /// Guards the worker -> coordinator completion queue (the only state
  /// shared across threads on this backend; everything else is engine
  /// state confined to the coordinator via g_engine_ctx).
  Mutex mutex_{lockdep::kBackendCompletions};
  CondVar cv_;
  std::deque<AttemptEnd> completions_ CHPO_GUARDED_BY(mutex_);
};

}  // namespace chpo::rt
