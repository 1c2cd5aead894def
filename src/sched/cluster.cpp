#include "sched/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

namespace prionn::sched {

namespace {
constexpr double kInfinity = std::numeric_limits<double>::infinity();
constexpr double kMinRemaining = 1.0;  // seconds
}  // namespace

ClusterSimulator::ClusterSimulator(ClusterOptions options)
    : options_(options), free_nodes_(options.total_nodes) {
  if (options_.total_nodes == 0)
    throw std::invalid_argument("ClusterSimulator: need at least one node");
  if (options_.io_cap < 0.0)
    throw std::invalid_argument("ClusterSimulator: io_cap must be >= 0");
}

bool ClusterSimulator::io_fits(double bandwidth) const noexcept {
  return options_.io_cap <= 0.0 || io_in_use_ + bandwidth <= options_.io_cap;
}

double ClusterSimulator::next_event_time() const noexcept {
  // Two event sources: job completions, and the release of an IO-held
  // head (which must fire even when nothing is running). A release that
  // has passed belongs to a head that has since lost its nodes; it waits
  // for a completion instead.
  double t = kInfinity;
  for (const auto& r : running_) t = std::min(t, r.actual_end);
  if (head_release_ > now_) t = std::min(t, head_release_);
  return t;
}

void ClusterSimulator::complete_due_jobs() {
  // Pop every running job whose actual end is due. Iterate because several
  // jobs can end at the same instant.
  for (std::size_t i = 0; i < running_.size();) {
    if (running_[i].actual_end <= now_ + 1e-9) {
      const Running& r = running_[i];
      completed_.push_back(
          ScheduledJob{r.id, r.submit, r.start, r.actual_end});
      free_nodes_ += r.nodes;
      if (options_.io_cap > 0.0) {
        io_in_use_ -= r.io_bandwidth;
        PRIONN_OBS_GAUGE_SET("prionn_sched_predicted_io_in_use",
                             "predicted bandwidth of the running set",
                             io_in_use_);
      }
      running_[i] = running_.back();
      running_.pop_back();
    } else {
      ++i;
    }
  }
}

void ClusterSimulator::start_job(const SimJob& job, std::size_t queue_pos) {
  free_nodes_ -= job.nodes;
  Running r;
  r.id = job.id;
  r.nodes = job.nodes;
  r.start = now_;
  r.submit = job.submit_time;
  r.actual_end = now_ + std::max(job.runtime, kMinRemaining);
  r.believed_end = now_ + std::max(job.believed_runtime, kMinRemaining);
  r.io_bandwidth = job.io_bandwidth;
  if (options_.io_cap > 0.0) {
    io_in_use_ += r.io_bandwidth;
    PRIONN_OBS_INC("prionn_sched_jobs_started_total",
                   "jobs dispatched by the IO-aware scheduler");
    PRIONN_OBS_GAUGE_SET("prionn_sched_predicted_io_in_use",
                         "predicted bandwidth of the running set",
                         io_in_use_);
  }
  running_.push_back(r);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(queue_pos));
  if (queue_pos == 0) head_release_ = -1.0;
}

void ClusterSimulator::try_start_jobs() {
  // FCFS: start queue-head jobs while their nodes and predicted IO fit. A
  // head that has its nodes but is held back by IO alone starts anyway at
  // its hold release, which bounds starvation.
  while (!queue_.empty() && queue_.front().nodes <= free_nodes_) {
    if (!io_fits(queue_.front().io_bandwidth)) {
      if (head_release_ < 0.0) {
        head_release_ = now_ + options_.max_io_hold;
        PRIONN_OBS_INC("prionn_sched_io_holds_total",
                       "queue heads held back by the IO-admission gate");
      }
      if (now_ < head_release_) break;
    }
    start_job(queue_.front(), 0);
  }
  if (queue_.empty() || !options_.easy_backfill) return;
  // Backfill only starts candidates that fit the free nodes now, and
  // starting one only shrinks them: if none fits, nothing can start.
  if (std::none_of(queue_.begin() + 1, queue_.end(), [this](const SimJob& j) {
        return j.nodes <= free_nodes_;
      }))
    return;

  // EASY backfill. Compute the shadow time: the earliest instant the
  // blocked head job could start, believing the scheduler's runtime
  // estimates, and the nodes left over at that instant.
  std::vector<std::pair<double, std::uint32_t>> releases;  // (believed_end, nodes)
  releases.reserve(running_.size());
  for (const auto& r : running_)
    releases.emplace_back(std::max(r.believed_end, now_), r.nodes);
  std::sort(releases.begin(), releases.end());

  const std::uint32_t head_nodes = queue_.front().nodes;
  std::uint32_t available = free_nodes_;
  double shadow_time = now_;
  for (const auto& [end, nodes] : releases) {
    if (available >= head_nodes) break;
    available += nodes;
    shadow_time = end;
  }
  // Nodes that can be used by backfilled jobs without delaying the head's
  // reservation: the surplus at shadow time. The reservation follows the
  // node dimension only: IO head-blocking is bounded by max_io_hold rather
  // than reserved against.
  const std::uint32_t extra_nodes =
      available >= head_nodes ? available - head_nodes : 0;

  for (std::size_t i = 1; i < queue_.size();) {
    const SimJob& candidate = queue_[i];
    if (candidate.nodes <= free_nodes_ && io_fits(candidate.io_bandwidth)) {
      const double believed_end =
          now_ + std::max(candidate.believed_runtime, kMinRemaining);
      const bool fits_before_shadow = believed_end <= shadow_time + 1e-9;
      const bool fits_in_extra = candidate.nodes <= extra_nodes;
      if (fits_before_shadow || fits_in_extra) {
        start_job(candidate, i);
        continue;  // same index now holds the next candidate
      }
    }
    ++i;
  }
}

void ClusterSimulator::advance_to(double time) {
  if (time < now_) return;
  for (;;) {
    const double next = next_event_time();
    if (next > time) break;
    now_ = next;
    complete_due_jobs();
    try_start_jobs();
  }
  now_ = time;
}

void ClusterSimulator::submit(const SimJob& job) {
  if (job.submit_time < now_)
    throw std::invalid_argument(
        "ClusterSimulator::submit: out-of-order submission");
  if (job.nodes > options_.total_nodes)
    throw std::invalid_argument(
        "ClusterSimulator::submit: job larger than the machine");
  advance_to(job.submit_time);
  queue_.push_back(job);
  try_start_jobs();
}

void ClusterSimulator::drain() {
  while (!idle()) {
    const double next = next_event_time();
    // Every queued job fits the machine (submit() checks), so with nothing
    // running the head either starts or is IO-held until a finite release;
    // only an infinite max_io_hold can leave no next event.
    if (next == kInfinity)
      throw std::logic_error("ClusterSimulator::drain: deadlocked queue");
    advance_to(next);
  }
}

std::vector<ScheduledJob> ClusterSimulator::run(
    const std::vector<SimJob>& jobs) {
  PRIONN_OBS_SPAN("sched.run");
  for (const auto& job : jobs) submit(job);
  drain();
  return completed_;
}

double ClusterSimulator::snapshot_turnaround(
    std::uint64_t job_id,
    const std::function<double(std::uint64_t)>& predicted) const {
  // The clone needs only the live state; the completed history never
  // affects what happens next.
  ClusterSimulator clone(options_);
  clone.now_ = now_;
  clone.free_nodes_ = free_nodes_;
  clone.io_in_use_ = io_in_use_;
  clone.head_release_ = head_release_;
  clone.running_ = running_;
  clone.queue_ = queue_;

  // Replace runtimes of running jobs with prediction-derived remainders.
  for (auto& r : clone.running_) {
    const double elapsed = clone.now_ - r.start;
    const double remaining =
        std::max(kMinRemaining, predicted(r.id) - elapsed);
    r.actual_end = clone.now_ + remaining;
    r.believed_end = r.actual_end;
  }
  // Replace runtimes of queued jobs with predictions outright.
  bool queued = false;
  for (auto& q : clone.queue_) {
    const double p = std::max(kMinRemaining, predicted(q.id));
    q.runtime = p;
    q.believed_runtime = p;
    if (q.id == job_id) queued = true;
  }

  // The clone's runtimes are the predictions, so the target's end is fixed
  // the moment it starts. Replay one event at a time until then: a
  // job started inside advance_to(next) ends at least a second after
  // `next`, so the target cannot also complete within that step.
  for (;;) {
    const auto target =
        std::find_if(clone.running_.begin(), clone.running_.end(),
                     [job_id](const Running& r) { return r.id == job_id; });
    if (target != clone.running_.end())
      return std::isfinite(target->actual_end)
                 ? target->actual_end - target->submit
                 : -1.0;
    if (!queued) return -1.0;
    const double next = clone.next_event_time();
    if (next == kInfinity) return -1.0;
    clone.advance_to(next);
  }
}

}  // namespace prionn::sched
