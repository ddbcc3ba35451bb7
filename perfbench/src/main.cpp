// pb_run — runs one benchmark workload and prints its metrics.
//
//   pb_run --workload <grid_mnist|storm_thread|daemon_mn4> --seed <n>
//          --seconds <s> --trace <0|1> [--commit <id>] [--work-dir <dir>]
//   pb_run --selftest
//
// One run = one warm-up job, then whole jobs repeated until --seconds of
// measurement have passed (at least kMinRepeats), each after kSetupPerRepeat
// set-up-only passes. Each end-to-end metric is the median over the repeats
// (setup_s over every set-up); the report lines give the quartiles beside
// it. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Exit status 0 only when every check held.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "support/log.hpp"

namespace pb {

long proc_status(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.compare(0, field.size() + 1, field + ":") == 0)
      return std::strtol(line.c_str() + field.size() + 1, nullptr, 10);
  return 0;
}

long thread_count() { return proc_status("Threads"); }

long long proc_wchar() {
  std::ifstream in("/proc/self/io");
  std::string key;
  long long value = 0;
  while (in >> key >> value)
    if (key == "wchar:") return value;
  return 0;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double spin_ms() {
  const std::int64_t t0 = now_ns();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

unsigned host_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = {
      {"runtime.submit_ns_per_task", "ns"},
      {"runtime.drive_ns_per_task.b1k", "ns"},
      {"runtime.drive_ns_per_task.b4k", "ns"},
      {"runtime.drive_ns_per_task.b16k", "ns"},
      {"runtime.drive_ns_per_task.chain", "ns"},
      {"runtime.backlog_slope", "ratio"},
      {"runtime.queue_wait_us.p50", "us"},
      {"runtime.queue_wait_us.p99", "us"},
      {"runtime.dispatch_us.p50", "us"},
      {"runtime.dispatch_us.p99", "us"},
      {"runtime.notify_us.p50", "us"},
      {"runtime.notify_us.p99", "us"},
      {"runtime.slot_busy", "ratio"},
      {"trace.events", "count"},
      {"trace.ns_per_event", "ns"},
      {"ml.body_s", "s"},
      {"ml.sample_epochs_per_s", "1/s"},
      {"hpo.next_us.p50", "us"},
      {"daemon.rtt_us.write.p50", "us"},
      {"daemon.rtt_us.write.p90", "us"},
      {"daemon.rtt_us.read.p50", "us"},
      {"daemon.rtt_us.read.p90", "us"},
      {"daemon.decode_us_per_line", "us"},
      {"daemon.handle_us.write.p50", "us"},
      {"daemon.handle_us.read.p50", "us"},
      {"daemon.journal_append_us.p50", "us"},
      {"daemon.fsync_us.p50", "us"},
      {"daemon.steps", "count"},
      {"daemon.empty_steps", "count"},
      {"daemon.step_us.p50", "us"},
      {"daemon.journal_records", "count"},
      {"daemon.write_bytes", "B"},
      {"daemon.state_bytes", "B"},
      {"daemon.rss_kb_per_study", "KiB"},
      {"process.cpu_s", "s"},
      {"host.spin_ms", "ms"},
      {"traced.job_wall_s", "s"},
  };
  return metrics;
}

namespace {

constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 200;
constexpr int kSetupPerRepeat = 4;

const Metric kEndToEnd[] = {{"setup_s", "s"},
                            {"job_wall_s", "s"},
                            {"tasks_per_s", "1/s"},
                            {"makespan_s", "s"},
                            {"peak_rss_mb", "MiB"}};

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  return fallback;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  using namespace pb;
  // A workload that throws may leave a daemon thread blocked; end the
  // process at once rather than unwinding into a joinable std::thread.
  std::set_terminate([] {
    try {
      if (std::current_exception()) std::rethrow_exception(std::current_exception());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pb_run: %s\n", e.what());
    } catch (...) {
    }
    std::fflush(stdout);
    std::_Exit(1);
  });
  chpo::set_log_level(chpo::LogLevel::Error);
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--selftest") == 0) {
      const int failures = run_selftest();
      std::printf("selftest: %s (%d checker(s) misbehaved)\n", failures == 0 ? "ok" : "FAILED",
                  failures);
      return failures == 0 ? 0 : 1;
    }

  const std::string workload = arg(argc, argv, "--workload", "");
  const std::uint64_t seed = std::strtoull(arg(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  const double seconds = std::strtod(arg(argc, argv, "--seconds", "10").c_str(), nullptr);
  const bool traced = arg(argc, argv, "--trace", "0") == "1";
  const std::string commit = arg(argc, argv, "--commit", "unknown");
  const std::string work_dir =
      std::filesystem::absolute(arg(argc, argv, "--work-dir", ".bench_build/work")).string();

  JobResult (*job)(const JobArgs&) = nullptr;
  if (workload == "grid_mnist") job = run_grid_mnist;
  if (workload == "storm_thread") job = run_storm_thread;
  if (workload == "daemon_mn4") job = run_daemon_mn4;
  if (job == nullptr || !(seconds > 0)) {
    std::fprintf(stderr,
                 "usage: pb_run --workload grid_mnist|storm_thread|daemon_mn4 --seed N "
                 "--seconds S --trace 0|1 [--commit ID] [--work-dir DIR] | --selftest\n");
    return 2;
  }
  std::filesystem::create_directories(work_dir);
  // Workloads name their sockets relative to the work directory.
  std::filesystem::current_path(work_dir);

  const double spin_start = spin_ms();
  Ops ops;
  JobArgs job_args{.seed = seed, .traced = traced, .repeat = 0, .work_dir = work_dir};

  // Warm-up: same job, same checks, not timed into the result.
  JobResult warm = job(job_args);
  ops.merge(warm.ops);
  long max_threads = warm.threads;

  // Set-up-only passes go before every repeat, so the set-up samples are
  // spread over the whole run, as the repeats are, rather than taken in one
  // burst that a passing host slowdown can cover.
  std::vector<JobResult> repeats;
  std::vector<double> setups;
  const double t_measure = now_s();
  while (static_cast<int>(repeats.size()) < kMaxRepeats &&
         (static_cast<int>(repeats.size()) < kMinRepeats || now_s() - t_measure < seconds)) {
    job_args.setup_only = true;
    for (int i = 0; i < kSetupPerRepeat; ++i) {
      const JobResult r = job(job_args);
      setups.push_back(r.setup_s);
      max_threads = std::max(max_threads, r.threads);
    }
    job_args.setup_only = false;
    job_args.repeat = static_cast<int>(repeats.size()) + 1;
    repeats.push_back(job(job_args));
    ops.merge(repeats.back().ops);
    max_threads = std::max(max_threads, repeats.back().threads);
  }
  const double spin_end = spin_ms();
  const double peak_rss_mb = static_cast<double>(proc_status("VmHWM")) / 1024.0;

  std::map<std::string, std::vector<double>> samples;
  samples["setup_s"] = setups;
  for (const JobResult& r : repeats) {
    samples["setup_s"].push_back(r.setup_s);
    samples["job_wall_s"].push_back(r.job_wall_s);
    samples["tasks_per_s"].push_back(r.tasks / r.job_wall_s);
    samples["makespan_s"].push_back(r.makespan_s);
    samples["peak_rss_mb"].push_back(peak_rss_mb);
    samples["process.cpu_s"].push_back(r.cpu_s);
    for (const auto& [name, value] : r.layer) samples[name].push_back(value);
  }

  std::printf("report: workload=%s seed=%llu trace=%d commit=%s\n", workload.c_str(),
              static_cast<unsigned long long>(seed), traced ? 1 : 0, commit.c_str());
  std::printf("report: host cpu=\"%s\" nproc=%u threads_used=%ld\n", cpu_model().c_str(),
              host_threads(), max_threads);
  std::printf("report: repeats=%zu (+1 warm-up, +%zu set-up only) measured_s=%.3f "
              "spin_ms start=%.2f end=%.2f\n",
              repeats.size(), setups.size(), now_s() - t_measure, spin_start, spin_end);
  std::printf("report: %-34s %14s %14s %14s\n", "metric", "q1", "median", "q3");
  for (const auto& [name, values] : samples)
    std::printf("report: %-34s %14.6g %14.6g %14.6g\n", name.c_str(), quantile(values, 0.25),
                median(values), quantile(values, 0.75));
  std::printf("report: job_wall_s per repeat:");
  for (double v : samples["job_wall_s"]) std::printf(" %.4f", v);
  std::printf("\nreport: operations attempted=%ld failed=%ld\n", ops.attempted, ops.failed);
  for (const std::string& f : ops.failures) std::printf("report: FAILED %s\n", f.c_str());

  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const std::string& name, double value, const std::string& unit) {
    metrics << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << json_number(value)
            << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (!traced) {
    for (const Metric& m : kEndToEnd) emit(m.name, median(samples[m.name]), m.unit);
  } else {
    for (const auto& [name, unit] : per_layer_metrics()) {
      double value = 0.0;
      if (name == "host.spin_ms")
        value = spin_end;  // the start figure is taken before any warm-up
      else if (name == "traced.job_wall_s")
        value = median(samples["job_wall_s"]);
      else if (samples.count(name))
        value = median(samples[name]);
      emit(name, value, unit);
    }
  }
  const bool correct = ops.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", ops.attempted, ops.failed, metrics.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
