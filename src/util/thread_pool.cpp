#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/check.hpp"

namespace prionn::util {

namespace {

thread_local std::size_t t_lane_width = 0;  // 0: the whole pool

std::size_t thread_count(std::size_t threads) {
  const std::size_t n =
      threads ? threads : std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace

struct ThreadPool::Loop {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t chunks = 0;
  /// The submitter's lanes(); every chunk runs at this width.
  std::size_t width = 0;
  // Guarded by the pool's mutex_ from publication on.
  std::size_t next = 0;     // the next unclaimed chunk
  std::size_t handed = 0;   // chunks handed to workers not yet started
  std::size_t helping = 0;  // chunks other threads claimed and still run
  std::exception_ptr error;
  std::size_t error_chunk = 0;
  /// Signalled when `helping` drops to zero.
  CondVar done;
};

ThreadPool::LaneWidth::LaneWidth(std::size_t width) noexcept
    : previous_(t_lane_width) {
  t_lane_width = width;
}

ThreadPool::LaneWidth::~LaneWidth() { t_lane_width = previous_; }

std::size_t ThreadPool::lanes() const noexcept {
  return t_lane_width == 0 ? size() : std::min(t_lane_width, size());
}

ThreadPool::ThreadPool(std::size_t threads)
    : wake_(thread_count(threads) - 1),
      idle_(wake_.size(), false),
      handoffs_(wake_.size()) {
  workers_.reserve(wake_.size());
  for (std::size_t i = 0; i < wake_.size(); ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    ScopedLock lock(mutex_);
    stop_ = true;
  }
  for (auto& wake : wake_) wake.notify_one();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::claim(Loop& loop) {
  const std::size_t chunk = loop.next++;
  if (loop.next == loop.chunks) std::erase(open_, &loop);
  return chunk;
}

void ThreadPool::run_chunk(Loop& loop, std::size_t chunk_id) {
  PRIONN_DCHECK(chunk_id < loop.chunks)
      << "ThreadPool::run_chunk: chunk " << chunk_id << " of "
      << loop.chunks;
  const std::size_t total = loop.end - loop.begin;
  const std::size_t per = total / loop.chunks;
  const std::size_t extra = total % loop.chunks;
  // First `extra` chunks take one extra iteration so the partition is exact.
  const std::size_t lo =
      loop.begin + chunk_id * per + std::min(chunk_id, extra);
  const std::size_t hi = lo + per + (chunk_id < extra ? 1 : 0);
  try {
    const LaneWidth width(loop.width);
    (*loop.body)(lo, hi);
  } catch (...) {
    ScopedLock lock(mutex_);
    if (!loop.error || chunk_id < loop.error_chunk) {
      loop.error = std::current_exception();
      loop.error_chunk = chunk_id;
    }
  }
}

void ThreadPool::worker_loop(std::size_t id) {
  Loop* loop = nullptr;  // the loop of the chunk just run, if any
  for (;;) {
    std::size_t chunk = 0;
    {
      ScopedLock lock(mutex_);
      // Finishing a chunk and turning idle share one critical section:
      // once its submitter sees the chunk done, this worker is idle, where
      // the next loop can hand it a chunk, or running another one. Signal
      // under the lock, so the submitter cannot see `helping` reach zero,
      // return and free the loop before the signal is out.
      if (loop && --loop->helping == 0) loop->done.notify_one();
      idle_[id] = true;
      for (;;) {
        if (stop_) return;
        Handoff& handoff = handoffs_[id];
        if (handoff.loop) {
          loop = std::exchange(handoff.loop, nullptr);
          chunk = handoff.chunk;
          --loop->handed;
          break;
        }
        if (!open_.empty()) {
          loop = open_.front();
          chunk = claim(*loop);
          ++loop->helping;
          break;
        }
        wake_[id].wait(mutex_);
      }
      idle_[id] = false;
    }
    run_chunk(*loop, chunk);
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t width = lanes();
  const std::size_t chunks = std::min(end - begin, width);
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }
  Loop loop;
  loop.body = &fn;
  loop.begin = begin;
  loop.end = end;
  loop.chunks = chunks;
  loop.width = width;
  std::size_t chunk = 0;
  {
    ScopedLock lock(mutex_);
    open_.push_back(&loop);
    chunk = claim(loop);
    // Hand chunk k to the k-th lowest-numbered idle worker. A loop's
    // chunks then go to the same threads whenever those are idle: the
    // heads of nn::for_each_head stay on their threads from one step to
    // the next, and with them their thread_local scratch and their malloc
    // arenas. Chunks left over are claimed by whoever gets to them first.
    for (std::size_t i = 0; i < idle_.size() && loop.next < chunks; ++i) {
      if (!idle_[i] || handoffs_[i].loop) continue;
      handoffs_[i] = {&loop, claim(loop)};
      ++loop.handed;
      ++loop.helping;
      wake_[i].notify_one();
    }
  }
  // Run chunk 0, then every chunk no other thread has claimed yet, then
  // every chunk handed to a worker that has not woken up to start it (the
  // worker stays idle).
  for (;;) {
    run_chunk(loop, chunk);
    ScopedLock lock(mutex_);
    if (loop.next < loop.chunks) {
      chunk = claim(loop);
      continue;
    }
    if (loop.handed == 0) break;
    for (Handoff& handoff : handoffs_) {
      if (handoff.loop != &loop) continue;
      handoff.loop = nullptr;
      chunk = handoff.chunk;
      --loop.handed;
      --loop.helping;
      break;
    }
  }
  std::exception_ptr error;
  {
    ScopedLock lock(mutex_);
    while (loop.helping != 0) loop.done.wait(mutex_);
    error = loop.error;
  }
  if (error) std::rethrow_exception(error);
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
