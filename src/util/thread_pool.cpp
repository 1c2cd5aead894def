#include "util/thread_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace prionn::util {

namespace {
thread_local std::size_t t_lane_width = 0;  // 0: the whole pool
}  // namespace

ThreadPool::LaneWidth::LaneWidth(std::size_t width) noexcept
    : previous_(t_lane_width) {
  t_lane_width = width;
}

ThreadPool::LaneWidth::~LaneWidth() { t_lane_width = previous_; }

std::size_t ThreadPool::lanes() const noexcept {
  return t_lane_width == 0 ? size() : std::min(t_lane_width, size());
}

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  workers_.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    ScopedLock lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_chunk(const Task& task, std::size_t chunk_id) {
  PRIONN_DCHECK(task.body != nullptr && chunk_id < task.chunks)
      << "ThreadPool::run_chunk: chunk " << chunk_id << " of "
      << task.chunks;
  const std::size_t total = task.end - task.begin;
  const std::size_t per = total / task.chunks;
  const std::size_t extra = total % task.chunks;
  // First `extra` chunks take one extra iteration so the partition is exact.
  const std::size_t lo =
      task.begin + chunk_id * per + std::min(chunk_id, extra);
  const std::size_t hi = lo + per + (chunk_id < extra ? 1 : 0);
  if (lo >= hi) return;
  try {
    (*task.body)(lo, hi);
  } catch (...) {
    ScopedLock lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop(std::size_t worker_id) {
  std::size_t seen_generation = 0;
  for (;;) {
    Task task;
    {
      ScopedLock lock(mutex_);
      while (!stop_ && generation_ == seen_generation)
        cv_start_.wait(mutex_);
      if (stop_) return;
      seen_generation = generation_;
      task = task_;
    }
    if (worker_id < task.chunks) run_chunk(task, worker_id);
    {
      ScopedLock lock(mutex_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t chunks = std::min(total, lanes());
  if (chunks <= 1 || workers_.empty()) {
    fn(begin, end);
    return;
  }
  // One loop at a time: the single task_ slot and the generation protocol
  // assume exactly one submitter, so concurrent callers queue here.
  ScopedLock submit_lock(submit_mutex_);
  // Workers with id >= chunks still wake and decrement remaining_, so the
  // partition below stays exact only while chunks <= workers + 1.
  PRIONN_CHECK(chunks <= workers_.size() + 1)
      << "ThreadPool: " << chunks << " chunks for " << workers_.size() + 1
      << " threads";
  const Task task{&fn, begin, end, chunks};
  {
    ScopedLock lock(mutex_);
    task_ = task;
    first_error_ = nullptr;
    remaining_ = workers_.size();
    ++generation_;
  }
  cv_start_.notify_all();
  // Worker ids are 1..workers_.size() and each runs chunk == id when
  // id < chunks; the calling thread always takes chunk 0, so with
  // chunks <= workers + 1 the partition is exact and disjoint.
  run_chunk(task, 0);
  std::exception_ptr first_error;
  {
    ScopedLock lock(mutex_);
    while (remaining_ != 0) cv_done_.wait(mutex_);
    first_error = first_error_;
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  ThreadPool::global().parallel_for(begin, end, fn);
}

}  // namespace prionn::util
