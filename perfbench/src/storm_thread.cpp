// storm_thread — an HPO-shaped task graph with no training, on the thread
// backend. Three backlogs of no-op "experiment" tasks (1k, 4k, 16k), each
// submitted as one submit_batch wave closed by a fan-in task over all of
// the wave's outputs, then a 1k-task dependency chain. The coordinator's
// engine does almost all the work (admission, ready walk, placement,
// dispatch, commit, notification), so a per-task cost that grows with the
// backlog shows here and nowhere else.
#include <sched.h>

#include <any>
#include <atomic>
#include <cmath>
#include <memory>

#include "checks.hpp"
#include "common.hpp"
#include "runtime/runtime.hpp"
#include "trace_stats.hpp"

namespace pb {
namespace {

using chpo::rt::Direction;
using chpo::rt::Runtime;
using chpo::rt::TaskState;

constexpr std::size_t kWaves[] = {1000, 4000, 16000};
constexpr std::size_t kChain = 1000;
const char* const kDriveNames[] = {"runtime.drive_ns_per_task.b1k",
                                   "runtime.drive_ns_per_task.b4k",
                                   "runtime.drive_ns_per_task.b16k"};

/// The benchmark's own stamps and counters, one slot per task.
struct Ledger {
  explicit Ledger(std::size_t n)
      : runs(new std::atomic<std::uint32_t>[n]),
        end_ns(new std::atomic<std::int64_t>[n]),
        callbacks(n, 0),
        done(n, 0),
        notify_ns(n, 0) {
    for (std::size_t i = 0; i < n; ++i) runs[i] = 0, end_ns[i] = 0;
  }
  std::unique_ptr<std::atomic<std::uint32_t>[]> runs;  ///< bodies (worker threads)
  std::unique_ptr<std::atomic<std::int64_t>[]> end_ns;  ///< body end stamps
  std::vector<std::uint32_t> callbacks;  ///< on_complete calls (coordinator)
  std::vector<std::uint8_t> done;        ///< delivered state was Done
  std::vector<std::int64_t> notify_ns;   ///< on_complete stamps
  std::vector<std::int64_t> fan_in_start = std::vector<std::int64_t>(std::size(kWaves), 0);
};

/// Value task i contributes: an affine function of i, so each fan-in has a
/// closed-form sum.
struct Affine {
  std::int64_t a, b;
  std::int64_t at(std::size_t i) const { return a + b * static_cast<std::int64_t>(i); }
  std::int64_t sum(std::size_t n) const {
    const auto m = static_cast<std::int64_t>(n);
    return m * a + b * m * (m - 1) / 2;
  }
};

Runtime::CompletionCallback callback(Ledger* ledger, std::size_t slot) {
  return [ledger, slot](const chpo::rt::Future&, TaskState state) {
    ++ledger->callbacks[slot];
    ledger->done[slot] = state == TaskState::Done;
    ledger->notify_ns[slot] = now_ns();
  };
}

struct Graph {
  std::vector<std::vector<Runtime::BatchItem>> waves;  ///< experiments + closing fan-in
  std::vector<Runtime::BatchItem> chain;
  chpo::rt::DataId chain_data = 0;
  std::vector<std::size_t> wave_base;  ///< ledger slot of each wave's first task
};

/// Builds every task of the job (inputs, outputs, bodies, callbacks) before
/// the first submit, so it counts as set-up.
Graph build(Runtime& runtime, Ledger* ledger, const Affine& value) {
  Graph g;
  std::size_t slot = 0;
  for (std::size_t w = 0; w < std::size(kWaves); ++w) {
    g.wave_base.push_back(slot);
    std::vector<Runtime::BatchItem> items;
    items.reserve(kWaves[w] + 1);
    std::vector<chpo::rt::Param> fan_in_params;
    fan_in_params.reserve(kWaves[w]);
    for (std::size_t i = 0; i < kWaves[w]; ++i, ++slot) {
      const chpo::rt::DataId out = runtime.share<std::int64_t>(0);
      const std::int64_t v = value.at(i);
      chpo::rt::TaskDef def{.name = "experiment"};
      def.body = [ledger, slot, v](chpo::rt::TaskContext& ctx) -> std::any {
        ctx.write(0, std::any(v));
        ledger->runs[slot].fetch_add(1, std::memory_order_relaxed);
        ledger->end_ns[slot].store(now_ns(), std::memory_order_relaxed);
        return {};
      };
      items.push_back({std::move(def), {{out, Direction::Out}}, callback(ledger, slot)});
      fan_in_params.push_back({out, Direction::In});
    }
    chpo::rt::TaskDef fan_in{.name = "fan_in"};
    fan_in.body = [ledger, slot, w](chpo::rt::TaskContext& ctx) -> std::any {
      ledger->fan_in_start[w] = now_ns();
      std::int64_t sum = 0;
      for (std::size_t k = 0; k < kWaves[w]; ++k) sum += ctx.read<std::int64_t>(k);
      ledger->runs[slot].fetch_add(1, std::memory_order_relaxed);
      ledger->end_ns[slot].store(now_ns(), std::memory_order_relaxed);
      return sum;
    };
    items.push_back({std::move(fan_in), std::move(fan_in_params), callback(ledger, slot)});
    ++slot;
    g.waves.push_back(std::move(items));
  }
  g.wave_base.push_back(slot);
  g.chain_data = runtime.share<std::int64_t>(0);
  for (std::size_t i = 0; i < kChain; ++i, ++slot) {
    const std::int64_t v = value.at(i);
    chpo::rt::TaskDef def{.name = "chain"};
    def.body = [ledger, slot, v](chpo::rt::TaskContext& ctx) -> std::any {
      ctx.write(0, std::any(ctx.read<std::int64_t>(0) + v));
      ledger->runs[slot].fetch_add(1, std::memory_order_relaxed);
      ledger->end_ns[slot].store(now_ns(), std::memory_order_relaxed);
      return {};
    };
    g.chain.push_back({std::move(def), {{g.chain_data, Direction::InOut}}, callback(ledger, slot)});
  }
  return g;
}

std::size_t total_tasks() {
  std::size_t n = kChain;
  for (std::size_t w : kWaves) n += w + 1;
  return n;
}

chpo::rt::RuntimeOptions runtime_options(bool tracing) {
  chpo::rt::RuntimeOptions options;
  chpo::cluster::NodeSpec node;
  node.name = "local";
  // Two slots, whatever the host: the storm's cost is the coordinator's
  // ready walk, and each walk places as many tasks as slots are free, so
  // the slot count sets the number of walks. Fixing it keeps that number
  // the same on every host.
  node.cpus = std::clamp(host_threads() - 1, 1u, 2u);
  options.cluster = chpo::cluster::homogeneous(1, node);
  options.tracing = tracing;
  return options;
}

/// Pins the calling thread, and the threads it starts, to one CPU of the
/// process's start-up set (the `index`-th, cyclically) for its lifetime,
/// then gives the caller back its former set.
///
/// Each storm runs whole on one CPU, and each repeat on the next one. On a
/// shared host each vCPU has slow stretches of a few seconds of its own, and
/// the storm's single coordinator thread takes the speed of the vCPU it runs
/// on. Rotating makes the repeats of a run sample every vCPU, so a run's
/// median no longer follows one stretch (README: "Why the storm is pinned").
class PinToCpu {
 public:
  explicit PinToCpu(int index) {
    static const cpu_set_t allowed = [] {
      cpu_set_t set;
      CPU_ZERO(&set);
      sched_getaffinity(0, sizeof set, &set);
      return set;
    }();
    sched_getaffinity(0, sizeof saved_, &saved_);
    const int count = CPU_COUNT(&allowed);
    if (count == 0) return;  // the set is unknown: run unpinned
    int nth = index % count;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed) && nth-- == 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
        break;
      }
  }
  ~PinToCpu() { sched_setaffinity(0, sizeof saved_, &saved_); }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_;
};

struct StormTimes {
  double setup_s = 0, wall_s = 0, submit_ns = 0;
  double drive_ns[std::size(kWaves) + 1] = {};
};

/// One storm on a fresh runtime; checks go to `ops` when given.
StormTimes storm(const JobArgs& args, bool tracing, Ops* ops, JobResult* out) {
  StormTimes times;
  const std::int64_t t_setup = now_ns();
  const std::size_t n = total_tasks();
  auto ledger = std::make_unique<Ledger>(n);
  const Affine value{static_cast<std::int64_t>(args.seed % 1000) + 1,
                     static_cast<std::int64_t>((args.seed / 1000) % 7) + 1};
  // Declared before the runtime, so its workers inherit the pin and are
  // joined before the pin is lifted.
  const PinToCpu pin(args.repeat);
  Runtime runtime(runtime_options(tracing));
  Graph graph = build(runtime, ledger.get(), value);
  times.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
  if (args.setup_only) return times;

  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  std::vector<chpo::rt::Future> fan_ins;
  std::int64_t submit = 0;
  auto run_wave = [&](std::vector<Runtime::BatchItem>&& items, double& drive) {
    const std::int64_t ts = now_ns();
    std::vector<chpo::rt::Future> futures = runtime.submit_batch(std::move(items));
    const std::int64_t td = now_ns();
    submit += td - ts;
    runtime.barrier();
    drive = static_cast<double>(now_ns() - td);
    return futures;
  };
  for (std::size_t w = 0; w < std::size(kWaves); ++w)
    fan_ins.push_back(run_wave(std::move(graph.waves[w]), times.drive_ns[w]).back());
  run_wave(std::move(graph.chain), times.drive_ns[std::size(kWaves)]);
  std::vector<std::int64_t> sums;
  for (const chpo::rt::Future& f : fan_ins) sums.push_back(runtime.wait_on_as<std::int64_t>(f));
  const std::int64_t chain_sum = runtime.peek<std::int64_t>(graph.chain_data);
  times.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  times.submit_ns = static_cast<double>(submit);
  if (out != nullptr) {
    out->threads = thread_count();
    out->cpu_s = process_cpu_s() - cpu0;
  }

  if (ops == nullptr) return times;

  // --- checks ---------------------------------------------------------
  std::vector<std::uint32_t> runs(n);
  for (std::size_t i = 0; i < n; ++i) runs[i] = ledger->runs[i].load();
  check_exactly_once(runs, "storm: body runs", *ops);
  check_exactly_once(ledger->callbacks, "storm: on_complete deliveries", *ops);
  check_all_done(ledger->done, *ops);
  for (std::size_t w = 0; w < std::size(kWaves); ++w) {
    const std::string tag = "storm: wave " + std::to_string(kWaves[w]);
    check_sum(sums[w], value.sum(kWaves[w]), tag, *ops);
    std::vector<std::int64_t> ends;
    for (std::size_t i = graph.wave_base[w]; i < graph.wave_base[w] + kWaves[w]; ++i)
      ends.push_back(ledger->end_ns[i].load());
    check_fan_in_after_inputs(ledger->fan_in_start[w], ends, tag, *ops);
  }
  check_sum(chain_sum, value.sum(kChain), "storm: chain", *ops);
  const auto not_done = std::count(ledger->done.begin(), ledger->done.end(), std::uint8_t{0});
  ops->count(static_cast<long>(n), static_cast<long>(not_done), "storm: tasks not done");

  // Makespan on the thread backend's clock (wall time): first submit to the
  // last body's end, from the benchmark's own stamps. Copying the program's
  // trace here would add a transient of tens of MiB to peak_rss_mb.
  std::int64_t last_end = 0;
  for (std::size_t i = 0; i < n; ++i) last_end = std::max(last_end, ledger->end_ns[i].load());
  out->makespan_s = static_cast<double>(last_end - t0) * 1e-9;
  if (!args.traced) return times;

  // --- traced: queueing and dispatch from the program's trace.
  const TraceStats ts = trace_stats(runtime.trace());
  std::vector<double> notify_us;
  for (std::size_t i = 0; i < n; ++i)
    notify_us.push_back(static_cast<double>(ledger->notify_ns[i] - ledger->end_ns[i]) * 1e-3);
  const double slots = runtime_options(true).cluster.nodes[0].cpus;
  auto& L = out->layer;
  L["runtime.queue_wait_us.p50"] = quantile(ts.queue_us, 0.5);
  L["runtime.queue_wait_us.p99"] = quantile(ts.queue_us, 0.99);
  L["runtime.dispatch_us.p50"] = quantile(ts.dispatch_us, 0.5);
  L["runtime.dispatch_us.p99"] = quantile(ts.dispatch_us, 0.99);
  L["runtime.notify_us.p50"] = quantile(notify_us, 0.5);
  L["runtime.notify_us.p99"] = quantile(notify_us, 0.99);
  L["runtime.slot_busy"] = ts.body_s / (slots * out->makespan_s);
  L["trace.events"] = static_cast<double>(runtime.trace().size());
  return times;
}

}  // namespace

JobResult run_storm_thread(const JobArgs& args) {
  JobResult r;
  // Traced, the storm runs a second time with the program's tracing off.
  // Which of the two goes first alternates between repeats, so neither one
  // always follows the other's clean-up.
  const bool off_first = args.traced && !args.setup_only && args.repeat % 2 == 1;
  StormTimes off;
  if (off_first) off = storm(args, /*tracing=*/false, nullptr, nullptr);
  const StormTimes t = storm(args, /*tracing=*/true, &r.ops, &r);
  r.setup_s = t.setup_s;
  if (args.setup_only) return r;
  r.job_wall_s = t.wall_s;
  r.tasks = static_cast<double>(total_tasks());
  if (args.traced) {
    auto& L = r.layer;
    L["runtime.submit_ns_per_task"] = t.submit_ns / r.tasks;
    for (std::size_t w = 0; w < std::size(kWaves); ++w)
      L[kDriveNames[w]] = t.drive_ns[w] / static_cast<double>(kWaves[w] + 1);
    L["runtime.drive_ns_per_task.chain"] = t.drive_ns[std::size(kWaves)] / kChain;
    L["runtime.backlog_slope"] =
        std::log(L["runtime.drive_ns_per_task.b16k"] / L["runtime.drive_ns_per_task.b1k"]) /
        std::log(16.0);
    // The difference per event is what recording one trace event costs end
    // to end; its quartiles over the repeats show whether it is resolved.
    if (!off_first) off = storm(args, /*tracing=*/false, nullptr, nullptr);
    L["trace.ns_per_event"] = (t.wall_s - off.wall_s) * 1e9 / L["trace.events"];
  }
  return r;
}

}  // namespace pb
