// Work-sharing thread pool used for data-parallel loops (GEMM tiles,
// per-sample gradient computation, forest fitting). The pool follows the
// OpenMP "parallel for" model: a static partition of the index range over a
// fixed set of workers, which is the right shape for the regular,
// equal-cost iterations that dominate this library.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace prionn::util {

class ThreadPool {
 public:
  /// Create a pool with `threads` workers; 0 means hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size() + 1; }

  /// Fix the calling thread's lane width: the most chunks any loop it
  /// submits is split into. 0 (the default) means size(); 1 runs every
  /// loop inline on the calling thread, without the submission lock, so
  /// that thread never queues behind another submitter. Loops whose
  /// result depends only on fixed tile boundaries (GEMM, per-sample
  /// layers) give the same bits at every width.
  static void set_lane_width(std::size_t width) noexcept;

  /// Chunks a loop submitted from the calling thread splits into at most:
  /// the lane width, capped at size().
  std::size_t lanes() const noexcept;

  /// Run fn(begin..end) partitioned across lanes() threads of the pool
  /// (including the calling thread). Blocks until every iteration has
  /// completed. `fn` receives (index). Exceptions thrown by fn propagate
  /// to the caller (first one). Safe to call from multiple threads at
  /// once: concurrent loops are serialised on a submission lock (the pool
  /// has one task slot), so a serving thread and a background retrain can
  /// share the global pool — they interleave at per-loop granularity
  /// rather than corrupting the task state. Do not nest parallel_for inside a worker body: the
  /// submission lock is not reentrant.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Chunked variant: fn(chunk_begin, chunk_end) per worker — lets the body
  /// keep per-chunk scratch state without false sharing.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool sized to the machine; lazily constructed.
  static ThreadPool& global();

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunks = 0;
  };

  void worker_loop(std::size_t worker_id);
  /// Runs one chunk of `task` on the calling thread. Takes a *copy* of the
  /// task descriptor made under the lock: the generation protocol
  /// guarantees task_ is stable while any chunk runs, but handing each
  /// runner its own copy makes that independence provable (and lets
  /// thread-safety analysis keep task_ guarded).
  void run_chunk(const Task& task, std::size_t chunk_id);

  std::vector<std::thread> workers_;
  /// Held for the whole duration of one parallel_for_chunks call: the
  /// pool has a single task_ slot, so concurrent submitters take turns.
  Mutex submit_mutex_;
  Mutex mutex_;
  CondVar cv_start_;
  CondVar cv_done_;
  Task task_ PRIONN_GUARDED_BY(mutex_);
  std::size_t generation_ PRIONN_GUARDED_BY(mutex_) = 0;
  std::size_t remaining_ PRIONN_GUARDED_BY(mutex_) = 0;
  bool stop_ PRIONN_GUARDED_BY(mutex_) = false;
  std::exception_ptr first_error_ PRIONN_GUARDED_BY(mutex_);
};

/// Convenience wrapper over the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace prionn::util
