// Shared vocabulary of the benchmark: clocks, order statistics, process
// probes and the per-job result every workload returns.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

/// Linear-interpolated quantile of `values` at q in [0, 1]; 0 when empty.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Least-squares slope of y over x; 0 with fewer than two points.
inline double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0, my = 0;
  for (std::size_t i = 0; i < n; ++i) mx += x[i], my += y[i];
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  return sxx > 0 ? sxy / sxx : 0.0;
}

/// The number in a /proc/self/status field ("VmHWM" and "VmRSS" are in
/// KiB, "Threads" a count); 0 if absent.
long proc_status(const std::string& field);
/// Bytes passed to write-family syscalls so far (/proc/self/io wchar).
long long proc_wchar();
/// User + system CPU seconds of this process so far.
double process_cpu_s();
/// Fixed single-thread integer loop, timed in milliseconds. Run at the
/// start and the end of every run, it tells host drift apart from a change.
double spin_ms();
/// Threads of this process right now (/proc/self/status Threads).
long thread_count();
/// Hardware threads available to this process.
unsigned host_threads();

/// Operation ledger: every task, trial, request and check a job attempts,
/// and the ones that failed. Failed checks are also described by name.
struct Ops {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  /// Count one check; record its description when it does not hold.
  bool check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
    return ok;
  }
  /// Count `n` operations (tasks, trials, requests) of which `bad` failed.
  void count(long n, long bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0 && failures.size() < 20) failures.push_back(what);
  }
  void merge(const Ops& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string& f : other.failures)
      if (failures.size() < 20) failures.push_back(f);
  }
};

/// One in-process repeat of a workload's job.
struct JobResult {
  double setup_s = 0;     ///< everything before the first submit
  double job_wall_s = 0;  ///< first submit until the caller holds every result
  double makespan_s = 0;  ///< first submit to last task end, backend clock
  double tasks = 0;       ///< runtime tasks (trials on HPO workloads) completed
  double cpu_s = 0;       ///< user + system CPU of the whole process over the job
  long threads = 0;       ///< threads of the process while the job ran
  Ops ops;
  /// Per-layer metrics, filled in traced mode only.
  std::map<std::string, double> layer;
};

struct Metric {
  std::string name;
  std::string unit;
};

/// Every per-layer metric the benchmark reports, in BENCHMARK.json order.
/// A workload whose layer does no work reports 0 for it.
const std::vector<Metric>& per_layer_metrics();

struct JobArgs {
  std::uint64_t seed = 1;
  bool traced = false;
  int repeat = 0;          ///< 0 = warm-up; repeats count from 1
  bool setup_only = false; ///< stop after set-up (extra set-up samples)
  std::string work_dir;    ///< scratch directory inside the checkout
};

JobResult run_grid_mnist(const JobArgs& args);
JobResult run_storm_thread(const JobArgs& args);
JobResult run_daemon_mn4(const JobArgs& args);

/// Feeds every checker deliberately wrong input; returns failures found
/// (0 = every checker rejected its bad input and accepted its good one).
int run_selftest();

}  // namespace pb
