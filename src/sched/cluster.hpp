// Event-driven HPC cluster simulator — the stand-in for the Flux resource
// manager simulator of the paper's section 4. FCFS with EASY backfill:
// scheduling decisions (reservations, backfill feasibility) use each job's
// *believed* runtime, while completions use the actual runtime, so the
// effect of runtime-prediction quality on the schedule is faithfully
// modelled.
//
// IO-aware admission — the application PRIONN's predictions enable
// (sections 1 and 4; mechanism after Herbein et al., HPDC'16) — is the
// same loop with one more predicate: with a positive `io_cap`, a job only
// starts when both its nodes AND its predicted IO bandwidth fit, and a
// queue head held back by IO alone starts anyway once `max_io_hold` has
// passed. Decisions use the predicted bandwidths; schedule_outcome()
// (io_timeline.hpp) scores the realised schedule with the actual ones.
//
// The simulator is copyable by design: the paper's turnaround-time
// predictor snapshots the live system state on every submission, replaces
// the runtimes of queued/running jobs with predictions, and replays the
// copy forward (section 4.2). snapshot_turnaround() implements exactly
// that.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sched/sim_job.hpp"

namespace prionn::sched {

struct ClusterOptions {
  std::uint32_t total_nodes = 1296;  // Cab's node count
  bool easy_backfill = true;
  /// Aggregate filesystem bandwidth budget for admission, bytes/s (0
  /// disables IO-awareness, leaving plain FCFS + EASY backfill).
  double io_cap = 0.0;
  /// Upper bound on how long IO admission may hold back a queue head that
  /// has its nodes before it is started anyway (avoids starvation when one
  /// job's predicted IO alone exceeds the cap). Seconds.
  double max_io_hold = 4.0 * 3600.0;
};

class ClusterSimulator {
 public:
  explicit ClusterSimulator(ClusterOptions options = {});

  /// --- Incremental interface ---------------------------------------
  double now() const noexcept { return now_; }
  std::uint32_t free_nodes() const noexcept { return free_nodes_; }
  std::size_t running_count() const noexcept { return running_.size(); }
  std::size_t queued_count() const noexcept { return queue_.size(); }
  bool idle() const noexcept { return running_.empty() && queue_.empty(); }

  /// Advance simulated time, processing completions and starts.
  void advance_to(double time);

  /// Submit a job; jobs must arrive in non-decreasing submit order and fit
  /// the machine (std::invalid_argument otherwise). The simulator advances
  /// to the submit time first.
  void submit(const SimJob& job);

  /// Run until every submitted job has completed.
  void drain();

  /// Completed jobs so far (in completion order).
  const std::vector<ScheduledJob>& completed() const noexcept {
    return completed_;
  }

  /// --- Batch interface ----------------------------------------------
  /// Simulate a whole trace (must be sorted by submit time); returns the
  /// schedule in completion order.
  std::vector<ScheduledJob> run(const std::vector<SimJob>& jobs);

  /// --- Snapshot turnaround prediction (paper section 4.2) -----------
  /// Clone the live state (not the completed history), override the
  /// runtime of every queued and running job with `predicted(id)`
  /// (remaining time for running jobs is prediction minus elapsed), each
  /// floored at one second; a NaN prediction is floored to one second too.
  /// Then replay the clone until `job_id` starts: its predicted end is
  /// fixed from that moment, so a running target needs no replay at all.
  /// With a positive io_cap the replay admits on IO as the live system
  /// does, and its starts count in the prionn_sched_* metrics.
  /// Returns predicted completion minus the job's submit time, or a
  /// negative value if the job is unknown or its predicted end is not
  /// finite.
  double snapshot_turnaround(
      std::uint64_t job_id,
      const std::function<double(std::uint64_t)>& predicted) const;

 private:
  struct Running {
    std::uint64_t id = 0;
    std::uint32_t nodes = 1;
    double start = 0.0;
    double submit = 0.0;
    double actual_end = 0.0;    // drives the completion event
    double believed_end = 0.0;  // drives reservations/backfill
    double io_bandwidth = 0.0;  // predicted IO released on completion
  };

  bool io_fits(double bandwidth) const noexcept;
  void try_start_jobs();
  void start_job(const SimJob& job, std::size_t queue_pos);
  double next_event_time() const noexcept;
  void complete_due_jobs();

  ClusterOptions options_;
  double now_ = 0.0;
  std::uint32_t free_nodes_;
  double io_in_use_ = 0.0;  // predicted IO of the running set (io_cap > 0)
  /// Instant at which the IO-held queue head starts regardless of IO; the
  /// same stored value is the hold's event time and its start check, so
  /// rounding cannot split the two. Negative: the head is not held.
  double head_release_ = -1.0;
  std::vector<Running> running_;
  std::deque<SimJob> queue_;
  std::vector<ScheduledJob> completed_;
};

}  // namespace prionn::sched
