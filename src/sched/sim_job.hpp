// The scheduler simulator's view of a job: what the batch system knows
// (submit time, node count, a *believed* runtime — user request or a
// PRIONN prediction — and a predicted IO bandwidth) plus the actual
// runtime that drives completions.
#pragma once

#include <cstdint>

namespace prionn::sched {

struct SimJob {
  std::uint64_t id = 0;
  double submit_time = 0.0;       // seconds
  std::uint32_t nodes = 1;
  double runtime = 0.0;           // actual runtime, seconds
  double believed_runtime = 0.0;  // estimate used for scheduling decisions
  double io_bandwidth = 0.0;      // predicted bytes/s, drives IO admission
};

/// The simulator's output for one job.
struct ScheduledJob {
  std::uint64_t id = 0;
  double submit_time = 0.0;
  double start_time = 0.0;
  double end_time = 0.0;

  double turnaround() const noexcept { return end_time - submit_time; }
  double wait() const noexcept { return start_time - submit_time; }
};

}  // namespace prionn::sched
