// Scheduling policies.
//
// The engine offers a policy one ready task at a time, in the order the
// policy asks for (order_sensitive), and the policy decides where that task
// goes given the current resource occupancy. All policies but Fifo honour
// the COMPSs priority hint (priority tasks jump the queue), and none
// oversubscribes — ResourceState is the single source of truth for slot
// ownership.
//
// Policies provided:
//  * FifoScheduler      — ready-push order, first node that fits.
//  * PriorityScheduler  — priority flag first, then submission order
//                         (the COMPSs default; used by all paper figures).
//  * LocalityScheduler  — like Priority, but among fitting nodes prefers the
//                         one holding the most input bytes (matters only
//                         when the cluster has no parallel filesystem).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/data_registry.hpp"
#include "runtime/graph.hpp"
#include "runtime/node_health.hpp"
#include "runtime/resources.hpp"
#include "runtime/types.hpp"

namespace chpo::rt {

/// One placement decision.
struct Dispatch {
  TaskId task = kNoTask;
  Placement placement;
  /// Implementation chosen: -1 = primary, else index into def.variants.
  int variant = -1;
  /// Engine-stamped in-flight attempt handle (0 = not yet registered).
  /// Backends hand it back via Engine::complete_attempt so a completion of
  /// a reaped or superseded attempt can be told apart from a live one.
  std::uint64_t attempt_id = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;

  /// Place one ready task now: the first implementation (primary, then
  /// @implement variants in order) that fits on the first node that takes
  /// it. Allocations are made through `resources` (and must be released by
  /// the caller when the task finishes). Never places on the task's
  /// excluded nodes, nor on nodes `health` disallows (nullptr: no gating).
  /// Returns nullopt when nothing fits. Which ready task is offered next is
  /// the engine's decision, made from order_sensitive().
  virtual std::optional<Dispatch> place(const TaskRecord& task, const TaskGraph& graph,
                                        ResourceState& resources, const NodeHealth* health);

  /// True iff the engine offers ready tasks in push order, interleaved
  /// across studies by weighted fair-share deficit (Fifo). Every other
  /// policy is offered tasks by (priority desc, id asc) across all studies,
  /// which leaves fair-share weights no say in the order: under priority,
  /// locality and cost-aware only pause and max_running act per study.
  virtual bool order_sensitive() const { return false; }

  /// Health-gated placement: when a tracker is set, nodes it disallows
  /// (quarantined/probation beyond their concurrency cap) receive no new
  /// placements. Nullptr disables gating.
  void set_health(const NodeHealth* health) { health_ = health; }

  /// The tracker to gate one scheduling pass with, or nullptr when gating
  /// would block *every* node — a fully quarantined cluster must still make
  /// progress, so gating falls away rather than deadlocking.
  /// Note: the per-node concurrency cap is enforced against in-flight
  /// counts the engine updates when it registers a pass's placements; a
  /// single pass may place a small batch above the cap. Accepted — the cap
  /// is a throttle, not a hard isolation boundary.
  const NodeHealth* effective_health(const ResourceState& resources) const {
    if (!health_) return nullptr;
    for (std::size_t node = 0; node < resources.node_count(); ++node)
      if (!resources.node_down(node) && health_->allow_placement(node)) return health_;
    return nullptr;
  }

 protected:
  const NodeHealth* health_ = nullptr;
};

class FifoScheduler : public Scheduler {
 public:
  std::string name() const override { return "fifo"; }
  bool order_sensitive() const override { return true; }
};

class PriorityScheduler : public Scheduler {
 public:
  std::string name() const override { return "priority"; }
};

class LocalityScheduler : public Scheduler {
 public:
  std::string name() const override { return "locality"; }
  std::optional<Dispatch> place(const TaskRecord& task, const TaskGraph& graph,
                                ResourceState& resources, const NodeHealth* health) override;
};

/// Duration-aware implementation selection: among the (implementation,
/// node) pairs that fit *now*, pick the one whose cost model predicts the
/// shortest run. Fixes the @implement pathology where availability-greedy
/// selection strands a long task on a slow fallback (see bench_variants);
/// tasks without cost models fall back to first-fit like Priority.
class CostAwareScheduler : public Scheduler {
 public:
  std::string name() const override { return "cost-aware"; }
  std::optional<Dispatch> place(const TaskRecord& task, const TaskGraph& graph,
                                ResourceState& resources, const NodeHealth* health) override;
};

/// Factory by name: "fifo", "priority", "locality", "cost-aware".
std::unique_ptr<Scheduler> make_scheduler(const std::string& name);

/// Shared helper: first node (by index) that can take the task now,
/// skipping the task's excluded nodes and (when `health` is non-null)
/// nodes the health tracker disallows. Returns the placement or nullopt.
std::optional<Placement> place_first_fit(const TaskRecord& task, ResourceState& resources,
                                         const NodeHealth* health = nullptr);

/// Placement for a speculative duplicate of a straggling attempt: first
/// node that satisfies `constraint` now, skipping the task's excluded
/// (blacklisted) nodes and `avoid_node` — the node the straggling original
/// runs on, where a duplicate would only queue behind the same slowness.
std::optional<Placement> place_duplicate(const TaskRecord& task, const Constraint& constraint,
                                         ResourceState& resources, int avoid_node);

/// Bytes of the task's In/InOut params already resident on `node`.
std::uint64_t local_input_bytes(const TaskRecord& task, const DataRegistry& registry, int node);

}  // namespace chpo::rt
