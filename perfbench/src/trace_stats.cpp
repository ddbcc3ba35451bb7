#include "trace_stats.hpp"

#include <algorithm>
#include <unordered_map>

namespace pb {

TraceStats trace_stats(const chpo::trace::TraceSink& sink, const std::string& task_name) {
  using chpo::trace::EventKind;
  TraceStats ts;
  ts.first_submit = 1e300;
  std::unordered_map<std::uint64_t, double> submit_t, schedule_t;
  for (const chpo::trace::Event& e : sink.events()) {  // sorted by t_start
    if (e.kind == EventKind::TaskSubmit) {
      ts.first_submit = std::min(ts.first_submit, e.t_start);
      submit_t.emplace(e.task_id, e.t_start);
    } else if (e.kind == EventKind::TaskSchedule) {
      const auto submitted = submit_t.find(e.task_id);
      if (schedule_t.emplace(e.task_id, e.t_start).second && submitted != submit_t.end())
        ts.queue_us.push_back((e.t_start - submitted->second) * 1e6);
    } else if (e.kind == EventKind::TaskRun && (task_name.empty() || e.task_name == task_name)) {
      ts.last_end = std::max(ts.last_end, e.t_end);
      ts.body_s += e.t_end - e.t_start;
      ts.busy_core_s += (e.t_end - e.t_start) * static_cast<double>(std::max<std::size_t>(1, e.cores.size()));
      const auto scheduled = schedule_t.find(e.task_id);
      if (scheduled != schedule_t.end())
        ts.dispatch_us.push_back((e.t_start - scheduled->second) * 1e6);
    }
  }
  return ts;
}

}  // namespace pb
