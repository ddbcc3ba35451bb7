// Unit tests for the scheduling policies: per-task placement, and the
// order in which the engine offers ready tasks to each policy.
#include <gtest/gtest.h>

#include "runtime/runtime.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/study_session.hpp"

namespace chpo::rt {
namespace {

struct SchedulerFixture : ::testing::Test {
  SchedulerFixture() : graph(registry) {}

  TaskId add(const Constraint& c, bool priority = false) {
    TaskDef def;
    def.name = "t";
    def.constraint = c;
    def.priority = priority;
    return graph.add_task(def, {});
  }

  DataRegistry registry;
  TaskGraph graph;
};

// ---------------------------------------------------------------------------
// Offer order: the engine pulls ready tasks in the policy's order
// ---------------------------------------------------------------------------

/// Tasks of a simulated run on one MareNostrum4 node (48 cores), in the
/// order they were dispatched: two 24-core tasks fit at t=0 and the third
/// starts when one of them finishes. The third submitted task carries the
/// priority hint.
std::vector<TaskId> dispatch_order(const std::string& scheduler) {
  RuntimeOptions options;
  options.cluster = cluster::marenostrum4(1);
  options.simulate = true;
  options.scheduler = scheduler;
  Runtime runtime(std::move(options));
  std::vector<Runtime::BatchItem> wave;
  for (int i = 0; i < 3; ++i) {
    TaskDef def;
    def.name = "half_node";
    def.constraint = {.cpus = 24};
    def.priority = i == 2;
    def.cost = [](const Placement&, const cluster::NodeSpec&) { return 10.0; };
    wave.push_back(Runtime::BatchItem{.def = std::move(def)});
  }
  const std::vector<Future> futures = runtime.submit_batch(std::move(wave));
  runtime.barrier();
  std::vector<TaskId> order;
  std::vector<double> starts;
  for (const trace::Event& e : runtime.trace().events()) {
    if (e.kind != trace::EventKind::TaskSchedule) continue;
    order.push_back(e.task_id);
    starts.push_back(e.t_start);
  }
  EXPECT_EQ(starts, (std::vector<double>{0.0, 0.0, 10.0}));
  for (TaskId& id : order) id -= futures.front().producer;  // submission index
  return order;
}

TEST(OfferOrder, FifoPlacesInSubmissionOrder) {
  EXPECT_EQ(dispatch_order("fifo"), (std::vector<TaskId>{0, 1, 2}));  // hint ignored
}

TEST(OfferOrder, PrioritySchedulerJumpsQueue) {
  EXPECT_EQ(dispatch_order("priority"), (std::vector<TaskId>{2, 0, 1}));  // priority first
}

TEST(OfferOrder, CappedStudyAdmitsInPriorityOrder) {
  // A max_running cap of 1 admits one task per round, and the priority
  // scheduler takes it by (priority, id): the urgent task submitted second
  // runs first, the normal one after it.
  RuntimeOptions options;
  options.cluster = cluster::marenostrum4(1);
  options.simulate = true;
  Runtime runtime(std::move(options));
  StudySession capped = runtime.open_study({.name = "capped", .max_running = 1});
  TaskDef def;
  def.name = "one_core";
  def.cost = [](const Placement&, const cluster::NodeSpec&) { return 10.0; };
  const Future normal = capped.submit(def);
  def.priority = true;
  const Future urgent = capped.submit(def);
  capped.barrier();
  std::vector<std::pair<TaskId, double>> schedules;
  for (const trace::Event& e : runtime.trace().events())
    if (e.kind == trace::EventKind::TaskSchedule) schedules.emplace_back(e.task_id, e.t_start);
  EXPECT_EQ(schedules, (std::vector<std::pair<TaskId, double>>{{urgent.producer, 0.0},
                                                              {normal.producer, 10.0}}));
}

// ---------------------------------------------------------------------------
// Placement of one offered task
// ---------------------------------------------------------------------------

TEST_F(SchedulerFixture, FillsMultipleNodes) {
  ResourceState rs(cluster::marenostrum4(3));
  PriorityScheduler sched;
  // One node-filling task each.
  std::vector<int> nodes;
  for (int i = 0; i < 3; ++i) {
    const auto dispatch = sched.place(graph.task(add({.cpus = 48})), graph, rs, nullptr);
    ASSERT_TRUE(dispatch);
    nodes.push_back(dispatch->placement.node);
  }
  EXPECT_EQ(nodes, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(rs.any_free_slot());
}

TEST_F(SchedulerFixture, RespectsExcludedNodes) {
  ResourceState rs(cluster::marenostrum4(2));
  const TaskId t = add({.cpus = 1});
  graph.task(t).excluded_nodes.push_back(0);
  PriorityScheduler sched;
  const auto dispatch = sched.place(graph.task(t), graph, rs, nullptr);
  ASSERT_TRUE(dispatch);
  EXPECT_EQ(dispatch->task, t);
  EXPECT_EQ(dispatch->placement.node, 1);
}

TEST_F(SchedulerFixture, AllNodesExcludedMeansNoPlacement) {
  ResourceState rs(cluster::marenostrum4(1));
  const TaskId t = add({.cpus = 1});
  graph.task(t).excluded_nodes.push_back(0);
  PriorityScheduler sched;
  EXPECT_FALSE(sched.place(graph.task(t), graph, rs, nullptr));
}

TEST_F(SchedulerFixture, LocalitySchedulerPrefersDataHolder) {
  cluster::ClusterSpec spec = cluster::marenostrum4(3);
  spec.has_parallel_fs = false;
  ResourceState rs(spec);
  // A large input written by a producer task; its output lands on node 2.
  const DataId big = registry.register_data(std::any(1), 1 << 30, "big", /*everywhere=*/false);
  TaskDef producer_def;
  producer_def.name = "producer";
  const TaskId producer = graph.add_task(producer_def, {{big, Direction::Out}});
  registry.commit(big, 1, std::any(2), /*node=*/2);
  graph.task(producer).state = TaskState::Done;

  TaskDef def;
  def.name = "consumer";
  def.constraint = {.cpus = 1};
  const TaskId t = graph.add_task(def, {{big, Direction::In}});
  // Mark the producer dependency as satisfied for this scheduling test.
  graph.task(t).deps_remaining = 0;

  LocalityScheduler sched;
  const auto dispatch = sched.place(graph.task(t), graph, rs, nullptr);
  ASSERT_TRUE(dispatch);
  EXPECT_EQ(dispatch->placement.node, 2);
}

TEST_F(SchedulerFixture, LocalityFallsBackToFirstFit) {
  ResourceState rs(cluster::marenostrum4(2));
  const TaskId t = add({.cpus = 1});  // no inputs at all
  LocalityScheduler sched;
  const auto dispatch = sched.place(graph.task(t), graph, rs, nullptr);
  ASSERT_TRUE(dispatch);
  EXPECT_EQ(dispatch->placement.node, 0);
}

TEST_F(SchedulerFixture, PlaceFirstFitHelper) {
  ResourceState rs(cluster::marenostrum4(2));
  const TaskId t = add({.cpus = 48});
  rs.try_allocate(0, Constraint{.cpus = 1});  // node 0 can no longer take 48
  const auto p = place_first_fit(graph.task(t), rs);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->node, 1);
}

TEST_F(SchedulerFixture, FactoryByName) {
  EXPECT_EQ(make_scheduler("fifo")->name(), "fifo");
  EXPECT_EQ(make_scheduler("priority")->name(), "priority");
  EXPECT_EQ(make_scheduler("locality")->name(), "locality");
  EXPECT_EQ(make_scheduler("cost-aware")->name(), "cost-aware");
  EXPECT_THROW(make_scheduler("nope"), std::invalid_argument);
}

TEST_F(SchedulerFixture, CostAwarePicksFastestNode) {
  // Heterogeneous rates: the cost model makes node 1 (fast) 4x cheaper.
  cluster::ClusterSpec spec;
  cluster::NodeSpec slow;
  slow.name = "slow";
  slow.cpus = 4;
  slow.core_rate = 0.5;
  cluster::NodeSpec fast = slow;
  fast.name = "fast";
  fast.core_rate = 2.0;
  spec.nodes = {slow, fast};
  ResourceState rs(spec);

  TaskDef def;
  def.name = "t";
  def.constraint = {.cpus = 1};
  def.cost = [](const Placement&, const cluster::NodeSpec& node) { return 100.0 / node.core_rate; };
  const TaskId t = graph.add_task(def, {});
  CostAwareScheduler sched;
  const auto dispatch = sched.place(graph.task(t), graph, rs, nullptr);
  ASSERT_TRUE(dispatch);
  EXPECT_EQ(dispatch->placement.node, 1);  // first-fit would pick node 0
}

TEST_F(SchedulerFixture, CostAwareDefersSlowFallbackWhileFastIsBusy) {
  cluster::ClusterSpec spec;
  cluster::NodeSpec node;
  node.name = "gpuish";
  node.cpus = 8;
  node.gpus = 1;
  node.gpu_rate = 30.0;
  spec.nodes = {node};
  ResourceState rs(spec);
  // Occupy the GPU.
  const auto held = rs.try_allocate(0, Constraint{.gpus = 1});
  ASSERT_TRUE(held);

  TaskDef def;
  def.name = "t";
  def.constraint = {.cpus = 1, .gpus = 1};
  def.cost = [](const Placement& p, const cluster::NodeSpec&) {
    return p.gpu_count() > 0 ? 10.0 : 100.0;  // fallback 10x slower
  };
  TaskVariant cpu;
  cpu.constraint = {.cpus = 4};
  def.variants.push_back(std::move(cpu));
  const TaskId t = graph.add_task(def, {});

  CostAwareScheduler sched;
  // GPU busy, CPU fallback 10x worse than best possible: defer.
  EXPECT_FALSE(sched.place(graph.task(t), graph, rs, nullptr));
  // Once the GPU frees, the primary implementation is taken.
  rs.release(*held);
  const auto dispatch = sched.place(graph.task(t), graph, rs, nullptr);
  ASSERT_TRUE(dispatch);
  EXPECT_EQ(dispatch->variant, -1);
  EXPECT_EQ(dispatch->placement.gpus.size(), 1u);
}

TEST_F(SchedulerFixture, CostAwareSpillsWhenFallbackIsCompetitive) {
  cluster::ClusterSpec spec;
  cluster::NodeSpec node;
  node.name = "gpuish";
  node.cpus = 8;
  node.gpus = 1;
  node.gpu_rate = 30.0;
  spec.nodes = {node};
  ResourceState rs(spec);
  const auto held = rs.try_allocate(0, Constraint{.gpus = 1});

  TaskDef def;
  def.name = "t";
  def.constraint = {.cpus = 1, .gpus = 1};
  def.cost = [](const Placement& p, const cluster::NodeSpec&) {
    return p.gpu_count() > 0 ? 10.0 : 15.0;  // fallback only 1.5x slower
  };
  TaskVariant cpu;
  cpu.constraint = {.cpus = 4};
  def.variants.push_back(std::move(cpu));
  const TaskId t = graph.add_task(def, {});
  CostAwareScheduler sched;
  const auto dispatch = sched.place(graph.task(t), graph, rs, nullptr);
  ASSERT_TRUE(dispatch);
  EXPECT_EQ(dispatch->variant, 0);  // took the CPU fallback
  rs.release(*held);
}

TEST_F(SchedulerFixture, CostAwareWithoutCostModelsActsLikeFirstFit) {
  ResourceState rs(cluster::marenostrum4(2));
  CostAwareScheduler sched;
  for (int i = 0; i < 2; ++i) {
    const auto dispatch = sched.place(graph.task(add({.cpus = 1})), graph, rs, nullptr);
    ASSERT_TRUE(dispatch);
    EXPECT_EQ(dispatch->placement.node, 0);
  }
}

TEST_F(SchedulerFixture, GridOf27OnHalfNodeStarts24) {
  // The Figure 5 shape: 24 usable cores, 27 single-core tasks.
  cluster::ClusterSpec spec = cluster::marenostrum4(1);
  spec.worker_placement = cluster::WorkerPlacement::SharedCores;
  spec.worker_cores = 24;
  ResourceState rs(spec);
  PriorityScheduler sched;
  std::size_t placed = 0;
  for (int i = 0; i < 27; ++i)
    if (sched.place(graph.task(add({.cpus = 1})), graph, rs, nullptr)) ++placed;
  EXPECT_EQ(placed, 24u);
  EXPECT_FALSE(rs.any_free_slot());
}

}  // namespace
}  // namespace chpo::rt
