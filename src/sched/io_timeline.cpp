#include "sched/io_timeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace prionn::sched {

IoTimeline::IoTimeline(double bucket_seconds)
    : bucket_seconds_(bucket_seconds) {
  if (bucket_seconds <= 0.0)
    throw std::invalid_argument("IoTimeline: bucket_seconds must be > 0");
}

void IoTimeline::add(const IoInterval& interval) {
  if (interval.end_time <= interval.start_time || interval.bandwidth <= 0.0)
    return;
  const double start = std::max(0.0, interval.start_time);
  const double end = std::max(start, interval.end_time);
  const auto first =
      static_cast<std::size_t>(std::floor(start / bucket_seconds_));
  const auto last =
      static_cast<std::size_t>(std::ceil(end / bucket_seconds_));
  if (last > buckets_.size()) buckets_.resize(last, 0.0);
  for (std::size_t b = first; b < last; ++b) {
    // Pro-rate partial bucket coverage so short jobs are not over-counted.
    const double b_lo = static_cast<double>(b) * bucket_seconds_;
    const double b_hi = b_lo + bucket_seconds_;
    const double overlap =
        std::min(end, b_hi) - std::max(start, b_lo);
    if (overlap > 0.0)
      buckets_[b] += interval.bandwidth * overlap / bucket_seconds_;
  }
}

void IoTimeline::add(const std::vector<IoInterval>& intervals) {
  for (const auto& i : intervals) add(i);
}

ScheduleOutcome schedule_outcome(const std::vector<ScheduledJob>& schedule,
                                 std::span<const double> actual_bandwidth,
                                 double io_cap) {
  IoTimeline timeline(60.0);
  double wait_sum = 0.0, slowdown_sum = 0.0;
  for (const auto& s : schedule) {
    wait_sum += s.wait();
    const double runtime = s.end_time - s.start_time;
    slowdown_sum += (s.wait() + runtime) / std::max(runtime, 60.0);
    const double bw =
        s.id < actual_bandwidth.size() ? actual_bandwidth[s.id] : 0.0;
    timeline.add({s.start_time, s.end_time, bw});
  }
  ScheduleOutcome out;
  out.actual_io_series = timeline.series();
  const auto n = static_cast<double>(std::max<std::size_t>(1, schedule.size()));
  out.mean_wait_seconds = wait_sum / n;
  out.mean_slowdown = slowdown_sum / n;
  out.oversubscribed_minutes =
      io_cap > 0.0 ? count_over_cap_minutes(out.actual_io_series, io_cap) : 0;
  return out;
}

std::size_t count_over_cap_minutes(const std::vector<double>& series,
                                   double cap) noexcept {
  std::size_t count = 0;
  for (const double v : series)
    if (v > cap) ++count;
  return count;
}

}  // namespace prionn::sched
