#include "runtime/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace chpo::rt {

namespace {

bool node_excluded(const TaskRecord& task, std::size_t node) {
  return std::find(task.excluded_nodes.begin(), task.excluded_nodes.end(), static_cast<int>(node)) !=
         task.excluded_nodes.end();
}

bool health_allows(const NodeHealth* health, std::size_t node) {
  return health == nullptr || health->allow_placement(node);
}

/// Try one implementation of a task. Multinode constraints use the
/// multi-allocation path; locality ranking applies to single-node ones.
std::optional<Placement> place_implementation(const TaskRecord& task, const Constraint& constraint,
                                              const TaskGraph& graph, ResourceState& resources,
                                              bool locality_aware, const NodeHealth* health) {
  if (constraint.nodes > 1) {
    std::vector<int> excluded = task.excluded_nodes;
    if (health)
      for (std::size_t node = 0; node < resources.node_count(); ++node)
        if (!health->allow_placement(node)) excluded.push_back(static_cast<int>(node));
    return resources.try_allocate_multi(constraint, excluded);
  }
  if (locality_aware) {
    // Rank fitting nodes by resident input bytes; first-fit on ties.
    std::uint64_t best_bytes = 0;
    std::size_t best_node = resources.node_count();
    for (std::size_t node = 0; node < resources.node_count(); ++node) {
      if (node_excluded(task, node) || !health_allows(health, node) ||
          !resources.could_fit(node, constraint))
        continue;
      // Probe without committing: count bytes first, allocate later.
      const std::uint64_t bytes = local_input_bytes(task, graph.registry(), static_cast<int>(node));
      if (best_node == resources.node_count() || bytes > best_bytes) {
        // Only consider nodes that can take the task *now*.
        auto probe = resources.try_allocate(node, constraint);
        if (!probe) continue;
        resources.release(*probe);
        best_node = node;
        best_bytes = bytes;
      }
    }
    if (best_node < resources.node_count()) return resources.try_allocate(best_node, constraint);
    return std::nullopt;
  }
  for (std::size_t node = 0; node < resources.node_count(); ++node) {
    if (node_excluded(task, node) || !health_allows(health, node)) continue;
    if (auto placement = resources.try_allocate(node, constraint)) return placement;
  }
  return std::nullopt;
}

/// Primary implementation first, then @implement variants in order.
std::optional<Dispatch> place_in_order(const TaskRecord& task, const TaskGraph& graph,
                                       ResourceState& resources, bool locality_aware,
                                       const NodeHealth* health) {
  const int n_variants = static_cast<int>(task.def.variants.size());
  for (int variant = -1; variant < n_variants; ++variant) {
    auto placement = place_implementation(task, task.implementation_constraint(variant), graph,
                                          resources, locality_aware, health);
    if (placement)
      return Dispatch{.task = task.id, .placement = std::move(*placement), .variant = variant};
  }
  return std::nullopt;
}

}  // namespace

std::optional<Placement> place_first_fit(const TaskRecord& task, ResourceState& resources,
                                         const NodeHealth* health) {
  for (std::size_t node = 0; node < resources.node_count(); ++node) {
    if (node_excluded(task, node) || !health_allows(health, node)) continue;
    if (auto placement = resources.try_allocate(node, task.def.constraint)) return placement;
  }
  return std::nullopt;
}

std::optional<Placement> place_duplicate(const TaskRecord& task, const Constraint& constraint,
                                         ResourceState& resources, int avoid_node) {
  for (std::size_t node = 0; node < resources.node_count(); ++node) {
    if (static_cast<int>(node) == avoid_node) continue;
    if (node_excluded(task, node)) continue;
    if (auto placement = resources.try_allocate(node, constraint)) return placement;
  }
  return std::nullopt;
}

std::uint64_t local_input_bytes(const TaskRecord& task, const DataRegistry& registry, int node) {
  std::uint64_t bytes = 0;
  for (const ParamBinding& b : task.bindings) {
    if (b.param.dir == Direction::Out) continue;
    if (registry.available_everywhere(b.param.data, b.read_version) ||
        registry.locations(b.param.data, b.read_version).contains(node))
      bytes += registry.bytes_of(b.param.data);
  }
  return bytes;
}

std::optional<Dispatch> Scheduler::place(const TaskRecord& task, const TaskGraph& graph,
                                         ResourceState& resources, const NodeHealth* health) {
  return place_in_order(task, graph, resources, /*locality_aware=*/false, health);
}

std::optional<Dispatch> LocalityScheduler::place(const TaskRecord& task, const TaskGraph& graph,
                                                 ResourceState& resources,
                                                 const NodeHealth* health) {
  return place_in_order(task, graph, resources, /*locality_aware=*/true, health);
}

namespace {

/// Synthetic placement carrying just the resource counts a cost model needs.
Placement hypothetical_placement(int node, const Constraint& constraint, unsigned node_cores) {
  Placement p;
  p.node = node;
  const unsigned cpus = constraint.node_exclusive ? node_cores : constraint.cpus;
  for (unsigned c = 0; c < cpus; ++c) p.cores.push_back(c);
  for (unsigned g = 0; g < constraint.gpus; ++g) p.gpus.push_back(g);
  for (unsigned extra = 1; extra < std::max(1u, constraint.nodes); ++extra)
    p.secondary.push_back(NodeSlice{.node = node, .cores = p.cores, .gpus = p.gpus});
  return p;
}

double estimated_seconds(const TaskRecord& task, int variant, const Placement& placement,
                         const cluster::NodeSpec& node) {
  const TaskCost& cost = task.implementation_cost(variant);
  if (!cost) return 1.0;  // no model: all options look equal
  return cost(placement, node);
}

}  // namespace

std::optional<Dispatch> CostAwareScheduler::place(const TaskRecord& task, const TaskGraph&,
                                                  ResourceState& resources,
                                                  const NodeHealth* health) {
  // A fitting option is taken only if it is within `kSpillFactor` of the
  // task's best achievable duration anywhere on the (live) cluster;
  // otherwise the task waits for better resources to free up. Deferral is
  // safe: on an otherwise-idle cluster the preferred option either fits or
  // can never fit (and is then excluded from the best-achievable bound).
  constexpr double kSpillFactor = 2.0;
  const auto& spec = resources.spec();
  const int n_variants = static_cast<int>(task.def.variants.size());

  // Best achievable duration over every feasible (implementation, node).
  // Ungated by health: quarantine is transient, so a quarantined node
  // still bounds what the task could achieve later.
  double best_possible = std::numeric_limits<double>::infinity();
  for (int variant = -1; variant < n_variants; ++variant) {
    const Constraint& constraint = task.implementation_constraint(variant);
    for (std::size_t node = 0; node < resources.node_count(); ++node) {
      if (node_excluded(task, node) || !resources.could_fit(node, constraint)) continue;
      const Placement hypothetical =
          hypothetical_placement(static_cast<int>(node), constraint, spec.nodes[node].cpus);
      best_possible = std::min(
          best_possible, estimated_seconds(task, variant, hypothetical, spec.nodes[node]));
    }
  }

  // Cheapest option that fits right now.
  double best_fitting = std::numeric_limits<double>::infinity();
  std::optional<Placement> best_placement;
  int best_variant = -1;
  for (int variant = -1; variant < n_variants; ++variant) {
    const Constraint& constraint = task.implementation_constraint(variant);
    if (constraint.nodes > 1) {
      std::vector<int> excluded = task.excluded_nodes;
      if (health)
        for (std::size_t node = 0; node < resources.node_count(); ++node)
          if (!health->allow_placement(node)) excluded.push_back(static_cast<int>(node));
      if (auto probe = resources.try_allocate_multi(constraint, excluded)) {
        const double seconds = estimated_seconds(
            task, variant, *probe, spec.nodes[static_cast<std::size_t>(probe->node)]);
        if (seconds < best_fitting) {
          if (best_placement) resources.release(*best_placement);
          best_fitting = seconds;
          best_placement = std::move(*probe);
          best_variant = variant;
        } else {
          resources.release(*probe);
        }
      }
      continue;
    }
    for (std::size_t node = 0; node < resources.node_count(); ++node) {
      if (node_excluded(task, node) || !health_allows(health, node)) continue;
      auto probe = resources.try_allocate(node, constraint);
      if (!probe) continue;
      const double seconds = estimated_seconds(task, variant, *probe, spec.nodes[node]);
      if (seconds < best_fitting) {
        if (best_placement) resources.release(*best_placement);
        best_fitting = seconds;
        best_placement = std::move(*probe);
        best_variant = variant;
      } else {
        resources.release(*probe);
      }
    }
  }

  if (!best_placement) return std::nullopt;
  if (best_fitting > kSpillFactor * best_possible) {
    // Too slow compared to what freeing resources will offer: wait.
    resources.release(*best_placement);
    return std::nullopt;
  }
  return Dispatch{.task = task.id, .placement = std::move(*best_placement), .variant = best_variant};
}

std::unique_ptr<Scheduler> make_scheduler(const std::string& name) {
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "priority") return std::make_unique<PriorityScheduler>();
  if (name == "locality") return std::make_unique<LocalityScheduler>();
  if (name == "cost-aware") return std::make_unique<CostAwareScheduler>();
  throw std::invalid_argument("unknown scheduler policy: " + name);
}

}  // namespace chpo::rt
