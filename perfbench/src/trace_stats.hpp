// Figures read from the program's own TraceSink after a job.
#pragma once

#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace pb {

struct TraceStats {
  double first_submit = 0;  ///< earliest TaskSubmit, backend clock
  double last_end = 0;      ///< latest TaskRun end, backend clock
  double body_s = 0;        ///< sum of TaskRun durations
  double busy_core_s = 0;   ///< sum of TaskRun durations times cores held
  std::vector<double> queue_us;     ///< TaskSubmit to first TaskSchedule, per task
  std::vector<double> dispatch_us;  ///< first TaskSchedule to TaskRun start, per run
};

/// Only TaskRun events of tasks named `task_name` count (all when empty).
TraceStats trace_stats(const chpo::trace::TraceSink& sink, const std::string& task_name = {});

}  // namespace pb
