// Per-sample data parallelism for layers whose samples write disjoint
// slices of their outputs: splitting such a batch across threads cannot
// change a single bit of the result, only where it is computed.
#pragma once

#include <cstddef>
#include <functional>

#include "util/thread_pool.hpp"

namespace prionn::nn {

/// Run fn(lo, hi) over sample ranges covering [0, batch), split across the
/// calling thread's lanes of the global pool once the batch touches enough
/// floats to repay the fork; smaller batches run inline.
inline void for_each_sample(
    std::size_t batch, std::size_t floats_per_sample,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  constexpr std::size_t kMinParallelFloats = std::size_t{1} << 15;
  if (batch * floats_per_sample < kMinParallelFloats) {
    if (batch > 0) fn(0, batch);
    return;
  }
  util::ThreadPool::global().parallel_for_chunks(0, batch, fn);
}

}  // namespace prionn::nn
