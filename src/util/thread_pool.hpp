// Work-sharing thread pool used for data-parallel loops (GEMM tiles,
// per-sample gradient computation, forest fitting). The pool follows the
// OpenMP "parallel for" model: a static partition of the index range into
// at most lanes() chunks, which is the right shape for the regular,
// equal-cost iterations that dominate this library.
//
// The pool keeps a short list of open loops. A submitter publishes its
// loop there, hands one chunk to each of the lowest-numbered idle workers
// as it wakes them, and claims the rest itself until none are left; a
// worker that finishes a chunk claims chunks of the oldest open loop
// before it goes back to sleep. The submitter then waits only for the
// chunks other threads started; a handed chunk whose worker has not woken
// yet it takes back and runs. There is no submission lock: loops from several
// threads run at once, and a loop may be submitted from inside a loop
// body. This cannot deadlock: a submitter can always run every chunk of
// its own loop that no other thread has started, and a started chunk
// runs on a thread that waits only for loops submitted below it.
//
// A waiting submitter never runs other loops' chunks: bodies keep scratch
// in thread_local buffers, and a thread inside one body must not run an
// unrelated body that uses the same buffer. A thread runs a chunk only of
// a loop it submitted itself, or while it is idle.
#pragma once

#include <cstddef>
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

  std::size_t size() const noexcept { return wake_.size() + 1; }

  /// Sets the calling thread's lane width for one scope: the most chunks
  /// any loop it submits is split into. 0 (the default) means size(); 1
  /// runs every loop inline on the calling thread. A chunk runs at the
  /// lane width of the loop it belongs to, whichever thread claims it, so
  /// a loop nested in a body splits the same way wherever the body runs.
  /// Loops whose result depends only on fixed tile boundaries (GEMM,
  /// per-sample layers) give the same bits at every width. The previous
  /// width is restored on scope exit, also when the scope throws.
  class LaneWidth {
   public:
    explicit LaneWidth(std::size_t width) noexcept;
    ~LaneWidth();
    LaneWidth(const LaneWidth&) = delete;
    LaneWidth& operator=(const LaneWidth&) = delete;

   private:
    std::size_t previous_;
  };

  /// Chunks a loop submitted from the calling thread splits into at most:
  /// the lane width, capped at size().
  std::size_t lanes() const noexcept;

  /// Run fn(begin..end) in min(end - begin, lanes()) chunks, on the calling
  /// thread and whichever workers are idle. Blocks until every iteration
  /// has completed. `fn` receives (index). When chunks throw, every chunk
  /// still runs and the lowest-indexed chunk's exception is rethrown, so
  /// the error the caller sees never depends on timing. Safe to call from
  /// several threads at once and from inside a body of this pool.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Chunked variant: fn(chunk_begin, chunk_end) per chunk — lets the body
  /// keep per-chunk scratch state without false sharing.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool sized to the machine; lazily constructed.
  static ThreadPool& global();

 private:
  /// One submitted loop. It lives on its submitter's stack; the mutex
  /// guards its claim and completion state.
  struct Loop;

  void worker_loop(std::size_t id);
  /// Claims the next chunk of `loop` (mutex held); drops the loop from the
  /// open list once its last chunk is claimed.
  std::size_t claim(Loop& loop) PRIONN_REQUIRES(mutex_);
  /// Runs chunk `chunk_id` of `loop` on the calling thread at the loop's
  /// lane width, recording an exception it throws.
  void run_chunk(Loop& loop, std::size_t chunk_id);

  /// A chunk a submitter handed to an idle worker as it woke it.
  struct Handoff {
    Loop* loop = nullptr;
    std::size_t chunk = 0;
  };

  /// Worker i is idle_[i] while it runs no chunk; it sleeps on wake_[i]
  /// until handoffs_[i] holds a chunk or a loop is open.
  std::vector<CondVar> wake_;
  Mutex mutex_;
  std::vector<bool> idle_ PRIONN_GUARDED_BY(mutex_);
  std::vector<Handoff> handoffs_ PRIONN_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  /// Loops with unclaimed chunks, oldest first.
  std::vector<Loop*> open_ PRIONN_GUARDED_BY(mutex_);
  bool stop_ PRIONN_GUARDED_BY(mutex_) = false;
};

/// Convenience wrapper over the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

}  // namespace prionn::util
