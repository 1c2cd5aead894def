// Per-minute aggregate system IO bandwidth (section 4.3): each running
// job contributes its (predicted or actual) read+write bandwidth to every
// minute of its (predicted or actual) execution interval. The resulting
// series is what the burst detector thresholds.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sched/sim_job.hpp"

namespace prionn::sched {

/// One job's contribution to the system IO timeline.
struct IoInterval {
  double start_time = 0.0;  // seconds
  double end_time = 0.0;    // seconds
  double bandwidth = 0.0;   // bytes/s while running (read + write)
};

class IoTimeline {
 public:
  /// Bucket granularity in seconds (the paper works in minutes).
  explicit IoTimeline(double bucket_seconds = 60.0);

  void add(const IoInterval& interval);
  void add(const std::vector<IoInterval>& intervals);

  /// Aggregate bandwidth per bucket; index 0 starts at t = 0.
  const std::vector<double>& series() const noexcept { return buckets_; }
  double bucket_seconds() const noexcept { return bucket_seconds_; }
  std::size_t buckets() const noexcept { return buckets_.size(); }

  /// Trim/extend to exactly `n` buckets (aligning predicted and actual
  /// series before scoring).
  void resize(std::size_t n) { buckets_.resize(n, 0.0); }

 private:
  double bucket_seconds_;
  std::vector<double> buckets_;
};

/// Outcome of a realised schedule (the IO-aware scheduling comparison).
struct ScheduleOutcome {
  /// Realised aggregate IO per minute bucket (actual bandwidths).
  std::vector<double> actual_io_series;
  double mean_wait_seconds = 0.0;
  /// Bounded slowdown: (wait + runtime) / max(runtime, 60 s), averaged.
  double mean_slowdown = 0.0;
  /// Minutes whose realised aggregate IO exceeded `io_cap` (0 if the cap
  /// is not positive).
  std::size_t oversubscribed_minutes = 0;
};

/// Score `schedule`; `actual_bandwidth[id]` is job `id`'s actual bytes/s
/// (0 for ids beyond it).
ScheduleOutcome schedule_outcome(const std::vector<ScheduledJob>& schedule,
                                 std::span<const double> actual_bandwidth,
                                 double io_cap);

/// Number of buckets of `series` above `cap`.
std::size_t count_over_cap_minutes(const std::vector<double>& series,
                                   double cap) noexcept;

}  // namespace prionn::sched
