// daemon_mn4 — a long-lived daemon::Server behind daemon::SocketDaemon, run
// in-process on the simulation backend modelling one MareNostrum4 node.
//
// Client: this process's main thread, closed loop, one connection per
// tenant. Three tenants each submit a grid, a random, a tpe and a hyperband
// study (rotated order). Every study is submitted paused, watched, then
// resumed, so its watch stream misses no trial; the tpe studies are also
// paused and resumed mid-run. Reads (status, list, accounting, stats) go
// out at fixed points: after each study finishes, and once at the end,
// before `shutdown` and the wait for `drained`.
//
// Trial bodies are cheap (a tiny dataset, one real epoch); virtual trial
// durations come from the paper's MNIST cost model. The state directory
// sits under the run's work directory.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <deque>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "daemon/journal.hpp"
#include "daemon/server.hpp"
#include "daemon/socket_daemon.hpp"
#include "jsonlite/wire.hpp"
#include "ml/cost_model.hpp"
#include "ml/dataset.hpp"
#include "trace_stats.hpp"

namespace pb {
namespace {

namespace daemon = chpo::daemon;
namespace json = chpo::json;
namespace fs = std::filesystem;

constexpr int kTenants = 3;
constexpr double kStepSeconds = 0.05;  // SocketDaemonOptions' default slice
constexpr long kRandomBudget = 16;
constexpr long kTpeBudget = 8;
constexpr std::size_t kTpePauseAfter = 2;  // trial events before the mid-run pause
constexpr std::size_t kRssWarmupStudies = 3;

struct Plan {
  int tenant = 0;
  std::string algorithm;
  json::Value spec;
  long expected_trials = 0;
  bool pause_midway = false;
};

json::Value obj(std::initializer_list<std::pair<const char*, json::Value>> members) {
  json::Value v{json::Object{}};
  for (const auto& [k, m] : members) v.set(k, m);
  return v;
}

/// Search space of the random, tpe and hyperband studies. Of the cost
/// model's inputs only the optimizer varies (a 6% spread in trial cost), so
/// seeds differ in virtual work by little.
json::Value search_space() {
  return json::parse(R"({"optimizer": ["Adam", "SGD", "RMSprop"], "num_epochs": [20],
    "batch_size": [64],
    "learning_rate": {"type": "float", "min": 0.0001, "max": 0.1, "log": true},
    "hidden_units": {"type": "int", "min": 16, "max": 128}})");
}

std::vector<Plan> make_plans(std::uint64_t seed) {
  const json::Value listing1 = json::parse(
      R"({"optimizer": ["Adam", "SGD", "RMSprop"], "num_epochs": [20, 50, 100],
          "batch_size": [32, 64, 128]})");
  const char* order[] = {"grid", "random", "tpe", "hyperband"};
  std::vector<Plan> plans;
  for (int t = 0; t < kTenants; ++t)
    for (int k = 0; k < 4; ++k) {
      Plan p;
      p.tenant = t;
      p.algorithm = order[(k + t) % 4];
      const auto study_seed = static_cast<std::int64_t>((seed * 131 + plans.size() * 17) % 1000003);
      p.spec = obj({{"name", json::Value("t" + std::to_string(t) + "-" + p.algorithm)},
                    {"algorithm", json::Value(p.algorithm)},
                    {"seed", json::Value(study_seed)},
                    {"paused", json::Value(true)}});
      if (p.algorithm == "grid") {
        p.spec.set("space", listing1);
        p.expected_trials = 27;
      } else {
        p.spec.set("space", search_space());
        if (p.algorithm == "random") p.expected_trials = kRandomBudget;
        if (p.algorithm == "tpe") p.expected_trials = kTpeBudget, p.pause_midway = true;
        if (p.algorithm == "hyperband") p.expected_trials = hyperband_trials(27, 3);
        if (p.algorithm != "hyperband")
          p.spec.set("budget", json::Value(static_cast<std::int64_t>(p.expected_trials)));
      }
      plans.push_back(std::move(p));
    }
  return plans;
}

bool is_write(const std::string& op) {
  return op == "submit" || op == "pause" || op == "resume" || op == "quota";
}
bool is_read(const std::string& op) {
  return op == "status" || op == "list" || op == "accounting" || op == "stats";
}

/// How the client reaches the server: a socket, or direct calls.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(int tenant, const std::string& line) = 0;
  /// Next message for any tenant; blocks until one arrives.
  virtual std::pair<int, json::Value> receive() = 0;
  /// Called once, just before the client sends `shutdown`.
  virtual void before_shutdown() {}
};

class SocketTransport : public Transport {
 public:
  explicit SocketTransport(const std::string& path) {
    for (int t = 0; t < kTenants; ++t) fds_[t] = connect_when_listening(path);
  }
  ~SocketTransport() override {
    for (int fd : fds_)
      if (fd >= 0) ::close(fd);
  }
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  void send(int tenant, const std::string& line) override {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fds_[tenant], line.data() + off, line.size() - off);
      if (n <= 0) throw std::runtime_error("daemon_mn4: socket write failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::pair<int, json::Value> receive() override {
    int idle_polls = 0;
    while (ready_.empty()) {
      pollfd pfds[kTenants];
      int open = 0;
      for (int t = 0; t < kTenants; ++t) {
        pfds[t] = {eof_[t] ? -1 : fds_[t], POLLIN, 0};
        open += eof_[t] ? 0 : 1;
      }
      if (open == 0) throw std::runtime_error("daemon_mn4: daemon closed every connection");
      const int n = ::poll(pfds, kTenants, 1000);
      if (n == 0 && ++idle_polls > 60) throw std::runtime_error("daemon_mn4: daemon silent for 60 s");
      for (int t = 0; t < kTenants; ++t) {
        if ((pfds[t].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        char buf[65536];
        const ssize_t got = ::read(fds_[t], buf, sizeof buf);
        if (got <= 0) {
          eof_[t] = true;  // the daemon exits after its last reply
          continue;
        }
        decoders_[t].feed(std::string_view(buf, static_cast<std::size_t>(got)));
        while (std::optional<json::Frame> f = decoders_[t].next()) {
          if (!f->ok()) throw std::runtime_error("daemon_mn4: bad frame: " + f->error);
          ready_.emplace_back(t, std::move(f->value));
        }
      }
    }
    std::pair<int, json::Value> msg = std::move(ready_.front());
    ready_.pop_front();
    return msg;
  }

 private:
  /// Connects once the daemon thread listens. It yields rather than sleeps
  /// between tries, so set-up time holds no polling delay of the client's.
  static int connect_when_listening(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long: " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const std::int64_t deadline = now_ns() + 2'000'000'000;
    while (now_ns() < deadline) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) break;
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) return fd;
      ::close(fd);
      std::this_thread::yield();
    }
    throw std::runtime_error("daemon_mn4: could not connect to " + path);
  }

  int fds_[kTenants] = {-1, -1, -1};
  bool eof_[kTenants] = {false, false, false};
  json::LineDecoder decoders_[kTenants];
  std::deque<std::pair<int, json::Value>> ready_;
};

/// Drives a Server directly: handle() per request, step() while waiting —
/// what SocketDaemon's coordinator does, with each call timed and counted.
class InProcessTransport : public Transport {
 public:
  InProcessTransport(daemon::Server& server, std::string journal_path)
      : server_(server), journal_path_(std::move(journal_path)) {}

  void send(int tenant, const std::string& line) override {
    const json::Value request = json::parse(std::string_view(line).substr(0, line.size() - 1));
    const std::string op = request.at("op").as_string();
    const std::int64_t t0 = now_ns();
    std::vector<daemon::Outbound> out = server_.handle(static_cast<daemon::ClientId>(tenant + 1), request);
    const double us = static_cast<double>(now_ns() - t0) * 1e-3;
    if (is_write(op)) handle_write_us.push_back(us);
    if (is_read(op)) handle_read_us.push_back(us);
    take(std::move(out));
  }

  std::pair<int, json::Value> receive() override {
    while (ready_.empty()) {
      if (!server_.busy()) throw std::runtime_error("daemon_mn4: client waits on an idle server");
      const std::int64_t t0 = now_ns();
      std::vector<daemon::Outbound> out = server_.step(kStepSeconds);
      step_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      ++steps;
      if (out.empty()) ++empty_steps;
      take(std::move(out));
    }
    std::pair<int, json::Value> msg = std::move(ready_.front());
    ready_.pop_front();
    return msg;
  }

  void before_shutdown() override { journal = daemon::StateJournal::load(journal_path_).records; }

  std::vector<double> handle_write_us, handle_read_us, step_us;
  long steps = 0, empty_steps = 0;
  std::vector<json::Value> journal;  ///< the session's journal records

 private:
  void take(std::vector<daemon::Outbound> out) {
    for (daemon::Outbound& o : out)
      ready_.emplace_back(static_cast<int>(o.client) - 1, std::move(o.message));
  }
  daemon::Server& server_;
  std::string journal_path_;
  std::deque<std::pair<int, json::Value>> ready_;
};

struct SessionResult {
  Ops ops;
  std::map<std::int64_t, StudyView> studies;
  std::map<std::string, long> ledger_trials, events_seen;
  json::Value final_stats;
  std::vector<double> rtt_write_us, rtt_read_us, rss_kb_at_finish;
  std::vector<std::string> lines;  ///< every request line sent
  std::int64_t first_submit_ns = 0, drained_ns = 0;
  long long wchar_first_submit = 0, wchar_drained = 0;
  long trials = 0;
};

/// The closed-loop client: per tenant, at most one request in flight.
class Session {
 public:
  Session(const std::vector<Plan>& plans, Transport& transport)
      : plans_(plans), transport_(transport) {
    for (int t = 0; t < kTenants; ++t) {
      tenants_[t].queue.push_back(obj({{"op", json::Value("quota")},
                                       {"tenant", tenant_name(t)},
                                       {"weight", json::Value(1.0 + t)}}));
      r_.events_seen[tenant_name(t).as_string()] = 0;
    }
    for (std::size_t i = 0; i < plans_.size(); ++i) {
      json::Value submit = obj({{"op", json::Value("submit")},
                                {"tenant", tenant_name(plans_[i].tenant)},
                                {"spec", plans_[i].spec}});
      tenants_[plans_[i].tenant].queue.push_back(std::move(submit));
      tenants_[plans_[i].tenant].submit_plans.push_back(i);
    }
  }

  SessionResult run() {
    for (int t = 0; t < kTenants; ++t) pump(t);
    while (!done_) {
      auto [t, msg] = transport_.receive();
      if (t < 0 || t >= kTenants) throw std::runtime_error("daemon_mn4: message for unknown client");
      if (msg.contains("event"))
        on_event(t, msg);
      else
        on_reply(t, msg);
      for (int u = 0; u < kTenants; ++u) pump(u);
    }
    return std::move(r_);
  }

 private:
  struct Tenant {
    std::deque<json::Value> queue;
    std::deque<std::size_t> submit_plans;  ///< plan index of each queued submit
    bool outstanding = false;
    std::string op;
    std::int64_t sent_ns = 0;
    std::int64_t sent_id = 0;
  };

  static json::Value tenant_name(int t) { return json::Value("t" + std::to_string(t)); }

  static json::Value study_req(const char* op, std::int64_t study) {
    return obj({{"op", json::Value(op)}, {"study", json::Value(study)}});
  }

  void pump(int t) {
    Tenant& tn = tenants_[t];
    if (tn.outstanding || tn.queue.empty()) return;
    json::Value req = std::move(tn.queue.front());
    tn.queue.pop_front();
    tn.op = req.at("op").as_string();
    tn.sent_id = ++next_id_;
    req.set("id", json::Value(tn.sent_id));
    if (tn.op == "shutdown") transport_.before_shutdown();
    std::string line = json::encode_frame(req);
    tn.outstanding = true;
    tn.sent_ns = now_ns();
    if (tn.op == "submit" && r_.first_submit_ns == 0) {
      r_.first_submit_ns = tn.sent_ns;
      r_.wchar_first_submit = proc_wchar();
    }
    transport_.send(t, line);
    r_.lines.push_back(std::move(line));
  }

  void on_reply(int t, const json::Value& msg) {
    Tenant& tn = tenants_[t];
    const double rtt_us = static_cast<double>(now_ns() - tn.sent_ns) * 1e-3;
    if (!tn.outstanding) throw std::runtime_error("daemon_mn4: reply with no request");
    tn.outstanding = false;
    const json::Value* id = msg.find("id");
    const json::Value* ok = msg.find("ok");
    const bool good = ok != nullptr && ok->is_bool() && ok->as_bool() && id != nullptr &&
                      id->is_int() && id->as_int() == tn.sent_id;
    const json::Value* error = msg.find("error");
    r_.ops.count(1, good ? 0 : 1,
                 "request " + tn.op + " failed: " +
                     (error != nullptr && error->is_string() ? error->as_string() : "bad reply"));
    if (is_write(tn.op)) r_.rtt_write_us.push_back(rtt_us);
    if (is_read(tn.op)) r_.rtt_read_us.push_back(rtt_us);
    if (!good) {
      if (tn.op == "submit" || tn.op == "shutdown") throw std::runtime_error("daemon_mn4: " + tn.op + " refused");
      return;
    }

    if (tn.op == "submit") {
      const std::int64_t study = msg.at("study").as_int();
      const Plan& plan = plans_[tn.submit_plans.front()];
      tn.submit_plans.pop_front();
      StudyView& view = r_.studies[study];
      view.algorithm = plan.algorithm;
      view.expected_trials = plan.expected_trials;
      owner_[study] = &plan;
      tn.queue.push_front(study_req("resume", study));
      tn.queue.push_front(study_req("watch", study));
    } else if (tn.op == "status") {
      StudyView& view = r_.studies[msg.at("study").as_int()];
      if (!view.final_state.empty()) view.status_trials_done = msg.at("trials_done").as_int();
    } else if (tn.op == "accounting") {
      for (const json::Value& row : msg.at("tenants").as_array())
        r_.ledger_trials[row.at("tenant").as_string()] = row.at("trials_completed").as_int();
    } else if (tn.op == "stats") {
      r_.final_stats = msg;
    } else if (tn.op == "shutdown") {
      const json::Value* drained = msg.find("drained");
      r_.ops.check(drained != nullptr && drained->is_bool() && drained->as_bool(),
                   "daemon: shutdown reply without drained");
      r_.drained_ns = now_ns();
      r_.wchar_drained = proc_wchar();
      done_ = true;
    }
  }

  void on_event(int t, const json::Value& msg) {
    const std::int64_t study = msg.at("study").as_int();
    const auto owner = owner_.find(study);
    if (owner == owner_.end() || owner->second->tenant != t)
      throw std::runtime_error("daemon_mn4: event for a study this tenant did not watch");
    StudyView& view = r_.studies[study];
    const std::string& kind = msg.at("event").as_string();
    if (kind == "trial") {
      view.watched.push_back(msg.at("trials_done").as_int());
      ++r_.events_seen[tenant_name(t).as_string()];
      ++r_.trials;
      const json::Value* failed = msg.find("failed");
      r_.ops.count(1, failed != nullptr && failed->as_bool() ? 1 : 0, "daemon: a trial failed");
      if (owner->second->pause_midway && view.watched.size() == kTpePauseAfter) {
        tenants_[t].queue.push_back(study_req("pause", study));
        tenants_[t].queue.push_back(study_req("status", study));
        tenants_[t].queue.push_back(study_req("resume", study));
      }
    } else if (kind == "state") {
      const std::string& state = msg.at("state").as_string();
      if ((state != "finished" && state != "killed") || !view.final_state.empty()) return;
      view.final_state = state;
      r_.rss_kb_at_finish.push_back(static_cast<double>(proc_status("VmRSS")));
      Tenant& tn = tenants_[t];
      tn.queue.push_back(study_req("status", study));
      tn.queue.push_back(obj({{"op", json::Value("list")}}));
      if (t == 0) {
        tn.queue.push_back(obj({{"op", json::Value("accounting")}}));
        tn.queue.push_back(obj({{"op", json::Value("stats")}}));
      }
      if (++finished_ == plans_.size()) {
        Tenant& first = tenants_[0];
        first.queue.push_back(obj({{"op", json::Value("accounting")}}));
        first.queue.push_back(obj({{"op", json::Value("stats")}}));
        first.queue.push_back(obj({{"op", json::Value("shutdown")}}));
      }
    }
  }

  const std::vector<Plan>& plans_;
  Transport& transport_;
  Tenant tenants_[kTenants];
  std::map<std::int64_t, const Plan*> owner_;
  std::size_t finished_ = 0;
  std::int64_t next_id_ = 0;
  bool done_ = false;
  SessionResult r_;
};

daemon::ServerOptions server_options(const std::string& state_dir, std::uint64_t seed) {
  daemon::ServerOptions options;
  options.manager.runtime.cluster = chpo::cluster::marenostrum4(1);
  options.manager.runtime.simulate = true;
  options.manager.runtime.seed = seed;
  options.defaults.driver.workload = chpo::ml::mnist_paper_model();
  options.defaults.driver.epoch_divisor = 10;
  options.defaults.driver.epoch_cap = 1;  // cheap bodies: one real epoch per trial
  options.defaults.driver.seed = seed;
  options.state_dir = state_dir;
  fs::create_directories(state_dir);
  return options;
}

long long dir_bytes(const std::string& dir) {
  long long total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += static_cast<long long>(entry.file_size());
  return total;
}

/// Checks on one finished session against the plans and the server.
void check_session(const SessionResult& s, const daemon::Server& server, Ops& ops) {
  ops.check(s.studies.size() == 4 * kTenants, "daemon: not every planned study was admitted");
  check_studies(s.studies, ops);
  check_accounting(s.ledger_trials, s.events_seen, ops);
  const json::Value* leaked = s.final_stats.find("leaked_completions");
  const json::Value* lineage = s.final_stats.find("lineage_violations");
  ops.check(leaked != nullptr && leaked->as_int() == 0, "daemon: leaked completions");
  ops.check(lineage != nullptr && lineage->as_int() == 0, "daemon: lineage violations");
  ops.check(server.done(), "daemon: server not done after drained");
}

/// One job. The caller removes `state_dir` (and the replay's `-replay` twin).
JobResult daemon_job(const JobArgs& args, const std::string& tag, const std::string& state_dir) {
  JobResult r;
  const std::int64_t t_setup = now_ns();
  const chpo::ml::Dataset dataset = chpo::ml::make_mnist_like(8, 8, args.seed);
  const std::vector<Plan> plans = make_plans(args.seed);
  daemon::Server server(server_options(state_dir, args.seed), dataset);
  daemon::SocketDaemonOptions front_options;
  // Relative to the working directory, which main() sets to the work
  // directory: an absolute path under a deep checkout could pass the
  // 108-byte sun_path limit.
  front_options.socket_path = "d" + tag + ".sock";
  front_options.step_seconds = kStepSeconds;
  const std::string socket_path = front_options.socket_path;
  daemon::SocketDaemon front_end(std::move(front_options), server);
  int daemon_rc = -1;
  std::thread coordinator([&] { daemon_rc = front_end.run(); });
  SessionResult s;
  {
    SocketTransport transport(socket_path);
    Session session(plans, transport);
    r.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;
    r.threads = thread_count();
    if (args.setup_only) {
      transport.send(0, json::encode_frame(obj({{"op", json::Value("shutdown")}})));
      transport.receive();  // the drained reply
    } else {
      const double cpu0 = process_cpu_s();
      s = session.run();
      r.cpu_s = process_cpu_s() - cpu0;
    }
  }
  coordinator.join();
  if (args.setup_only) return r;
  r.job_wall_s = static_cast<double>(s.drained_ns - s.first_submit_ns) * 1e-9;
  r.tasks = static_cast<double>(s.trials);
  const long long state_bytes = dir_bytes(state_dir);

  r.ops.merge(s.ops);
  r.ops.check(daemon_rc == 0, "daemon: SocketDaemon::run returned non-zero");
  check_session(s, server, r.ops);

  // Makespan on the simulator's clock, and the work it had to fit.
  const TraceStats ts = trace_stats(server.manager().trace());
  r.makespan_s = ts.last_end - ts.first_submit;
  const unsigned cores = chpo::cluster::marenostrum4(1).total_usable_cpus();
  check_makespan_bound(r.makespan_s, ts.busy_core_s, cores, r.ops);

  if (args.traced) {
    auto& L = r.layer;
    L["daemon.rtt_us.write.p50"] = quantile(s.rtt_write_us, 0.5);
    L["daemon.rtt_us.write.p90"] = quantile(s.rtt_write_us, 0.9);
    L["daemon.rtt_us.read.p50"] = quantile(s.rtt_read_us, 0.5);
    L["daemon.rtt_us.read.p90"] = quantile(s.rtt_read_us, 0.9);
    L["daemon.write_bytes"] = static_cast<double>(s.wchar_drained - s.wchar_first_submit);
    L["daemon.state_bytes"] = static_cast<double>(state_bytes);
    L["daemon.journal_records"] = static_cast<double>(s.final_stats.at("journal_records").as_int());
    L["runtime.slot_busy"] = ts.busy_core_s / (cores * r.makespan_s);
    L["trace.events"] = static_cast<double>(server.manager().trace().size());
    std::vector<double> ordinal, rss;
    for (std::size_t i = kRssWarmupStudies; i < s.rss_kb_at_finish.size(); ++i) {
      ordinal.push_back(static_cast<double>(i));
      rss.push_back(s.rss_kb_at_finish[i]);
    }
    L["daemon.rss_kb_per_study"] = slope(ordinal, rss);

    // Line decode + parse of every request line of the session.
    constexpr int kDecodeRounds = 20;
    json::LineDecoder decoder;
    std::size_t frames = 0;
    const std::int64_t t0 = now_ns();
    for (int round = 0; round < kDecodeRounds; ++round)
      for (const std::string& line : s.lines) {
        decoder.feed(line);
        while (decoder.next()) ++frames;
      }
    L["daemon.decode_us_per_line"] = static_cast<double>(now_ns() - t0) * 1e-3 / static_cast<double>(frames);

    // The same session replayed on a fresh Server driven in-process.
    const std::string replay_dir = state_dir + "-replay";
    daemon::Server fresh(server_options(replay_dir, args.seed), dataset);
    InProcessTransport direct(fresh, replay_dir + "/journal.ndjson");
    check_session(Session(plans, direct).run(), fresh, r.ops);
    L["daemon.handle_us.write.p50"] = quantile(direct.handle_write_us, 0.5);
    L["daemon.handle_us.read.p50"] = quantile(direct.handle_read_us, 0.5);
    L["daemon.steps"] = static_cast<double>(direct.steps);
    L["daemon.empty_steps"] = static_cast<double>(direct.empty_steps);
    L["daemon.step_us.p50"] = quantile(direct.step_us, 0.5);

    // The session's journal records appended and synced directly.
    const std::string journal_path = args.work_dir + "/journal-" + tag + ".ndjson";
    std::vector<double> append_us, fsync_us;
    {
      daemon::StateJournal journal({.path = journal_path, .fsync = true, .compact_every = 0});
      for (const json::Value& record : direct.journal) {
        const std::int64_t a = now_ns();
        journal.append(record);
        const std::int64_t b = now_ns();
        journal.sync();
        append_us.push_back(static_cast<double>(b - a) * 1e-3);
        fsync_us.push_back(static_cast<double>(now_ns() - b) * 1e-3);
      }
    }
    fs::remove(journal_path);
    L["daemon.journal_append_us.p50"] = quantile(append_us, 0.5);
    L["daemon.fsync_us.p50"] = quantile(fsync_us, 0.5);
  }
  return r;
}

}  // namespace

JobResult run_daemon_mn4(const JobArgs& args) {
  const std::string tag = std::to_string(::getpid()) + "-" + std::to_string(args.repeat);
  const std::string state_dir = args.work_dir + "/state-" + tag;
  JobResult r = daemon_job(args, tag, state_dir);
  fs::remove_all(state_dir);
  fs::remove_all(state_dir + "-replay");
  return r;
}

}  // namespace pb
