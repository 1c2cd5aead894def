// The sched pass shared by the turnaround workload and the sched probe.
#pragma once
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "sched/sim_job.hpp"
#include "trace/job_record.hpp"

namespace perfbench {

/// Contention target of the turnaround workload: the cluster gets the
/// fewest nodes (Cab has 1,296) that keep the mean queue length after a
/// submission at or below this many jobs, so most submissions see a
/// queue and the backlog stays bounded whatever the trace's demand.
inline constexpr double kTargetQueue = 16.0;

/// The smallest node count meeting `target_queue` on these jobs.
std::uint32_t contended_nodes(const std::vector<prionn::sched::SimJob>& jobs,
                              double target_queue);

/// Trace jobs as simulator jobs; the believed runtime is the request.
std::vector<prionn::sched::SimJob> sim_jobs(
    const std::vector<prionn::trace::JobRecord>& jobs);

/// One submit + snapshot_turnaround per job, then a drain.
struct SchedPass {
  std::vector<double> submit_us;
  std::vector<double> snapshot_us;
  std::vector<double> predicted;  // snapshot turnaround per job, seconds
  std::vector<double> simulated;  // turnaround after the drain, seconds
  double queued = 0.0;            // sum of queue lengths after submit
  double completed_at_snapshot = 0.0;
  std::size_t saw_queue = 0;  // submissions that left a non-empty queue
};
SchedPass sched_pass(const std::vector<prionn::sched::SimJob>& jobs,
                     std::uint32_t nodes, Tracer& tracer);

/// sched.* per-layer metrics of one pass over `jobs` jobs.
void record_sched_layer(const SchedPass& pass, std::size_t jobs,
                        Recorder& rec);

}  // namespace perfbench
