// Death tests for the PRIONN_CHECK contract macros and a thread-pool
// stress suite sized so a TSan build has real interleavings to examine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using prionn::util::Rng;
using prionn::util::ThreadPool;

class CheckDeathTest : public testing::Test {
 protected:
  void SetUp() override {
    // Death-test children must not inherit live pool threads.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST(CheckTest, PassingCheckHasNoEffectAndEvaluatesOnce) {
  int evaluations = 0;
  PRIONN_CHECK(++evaluations > 0) << "never shown";
  EXPECT_EQ(evaluations, 1);
}

TEST_F(CheckDeathTest, FailureReportsExpressionAndLocation) {
  EXPECT_DEATH(PRIONN_CHECK(1 == 2),
               "check_test\\.cpp.*PRIONN_CHECK\\(1 == 2\\) failed");
}

TEST_F(CheckDeathTest, FailureCarriesStreamedMessage) {
  const int got = 41;
  EXPECT_DEATH(PRIONN_CHECK(got == 42) << "expected 42, got " << got,
               "expected 42, got 41");
}

TEST_F(CheckDeathTest, CheckFiniteRejectsNanAndInfinity) {
  const double nan = std::nan("");
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_DEATH(PRIONN_CHECK_FINITE(nan), "non-finite value in `nan`");
  EXPECT_DEATH(PRIONN_CHECK_FINITE(inf), "non-finite value in `inf`");
}

TEST(CheckTest, CheckFiniteAcceptsFiniteScalarsAndSpans) {
  PRIONN_CHECK_FINITE(0.0);
  PRIONN_CHECK_FINITE(-1.5f);
  const std::vector<float> values{1.0f, -2.0f, 0.0f};
  PRIONN_CHECK_FINITE(std::span<const float>(values));
}

TEST_F(CheckDeathTest, CheckFiniteScansSpans) {
  std::vector<float> values(64, 1.0f);
  values[37] = std::numeric_limits<float>::quiet_NaN();
  const std::span<const float> span(values);
  EXPECT_DEATH(PRIONN_CHECK_FINITE(span) << "poisoned buffer",
               "poisoned buffer");
}

#if PRIONN_DCHECK_IS_ON()
TEST_F(CheckDeathTest, DcheckFiresInCheckedBuilds) {
  EXPECT_DEATH(PRIONN_DCHECK(false) << "debug contract", "debug contract");
}
#else
TEST(CheckTest, DisabledDcheckDoesNotEvaluateItsCondition) {
  int evaluations = 0;
  PRIONN_DCHECK(++evaluations > 0) << "never shown";
  EXPECT_EQ(evaluations, 0);
}
#endif

// --- Thread-pool stress -----------------------------------------------
//
// The pool below is always created with more workers than this machine
// may have cores so the signalling paths (publishing a loop, claiming its
// chunks, the submitter's wait for helpers) are exercised with real
// contention under TSan.

TEST(ThreadPoolStressTest, EveryIndexVisitedExactlyOnceAcrossManyRounds) {
  ThreadPool pool(4);
  constexpr std::size_t kRounds = 200;
  constexpr std::size_t kItems = 97;  // not a multiple of the pool size
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<int> visits(kItems, 0);
    pool.parallel_for(0, kItems, [&](std::size_t i) { ++visits[i]; });
    const int total = std::accumulate(visits.begin(), visits.end(), 0);
    ASSERT_EQ(total, static_cast<int>(kItems)) << "round " << round;
    for (std::size_t i = 0; i < kItems; ++i)
      ASSERT_EQ(visits[i], 1) << "index " << i << " round " << round;
  }
}

TEST(ThreadPoolStressTest, ChunksPartitionTheRangeExactly) {
  ThreadPool pool(4);
  for (std::size_t items : {1u, 2u, 5u, 64u, 1000u}) {
    std::atomic<std::size_t> covered{0};
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for_chunks(10, 10 + items,
                             [&](std::size_t lo, std::size_t hi) {
                               ASSERT_LT(lo, hi);
                               covered += hi - lo;
                               std::lock_guard lock(m);
                               chunks.emplace_back(lo, hi);
                             });
    EXPECT_EQ(covered.load(), items);
    std::sort(chunks.begin(), chunks.end());
    std::size_t expect_lo = 10;
    for (const auto& [lo, hi] : chunks) {
      EXPECT_EQ(lo, expect_lo);  // disjoint and gap-free
      expect_lo = hi;
    }
    EXPECT_EQ(expect_lo, 10 + items);
  }
}

TEST(ThreadPoolStressTest, SharedCounterSeesAllIncrements) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> counter{0};
  constexpr std::size_t kRounds = 50;
  constexpr std::size_t kItems = 512;
  for (std::size_t round = 0; round < kRounds; ++round)
    pool.parallel_for(0, kItems,
                      [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), kRounds * kItems);
}

TEST(ThreadPoolStressTest, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(pool.parallel_for(0, 64,
                                   [&](std::size_t i) {
                                     if (i == 33)
                                       throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // The pool must stay usable after an exceptional round.
    std::atomic<int> ok{0};
    pool.parallel_for(0, 8, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 8);
  }
}

// Which chunk throws first depends on timing; which error the caller sees
// must not.
TEST(ThreadPoolStressTest, LowestChunksErrorIsRethrown) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    try {
      pool.parallel_for_chunks(0, 4, [](std::size_t lo, std::size_t) {
        if (lo == 1) throw std::runtime_error("chunk 1");
        if (lo == 3) throw std::runtime_error("chunk 3");
      });
      FAIL() << "no exception, round " << round;
    } catch (const std::runtime_error& e) {
      ASSERT_STREQ(e.what(), "chunk 1") << "round " << round;
    }
  }
}

TEST(ThreadPoolStressTest, PerThreadRngChildrenAreIndependent) {
  // The repo-wide idiom for randomness inside parallel regions: pre-draw
  // one child seed per task, never share an Rng across threads. This test
  // pins the idiom down (and gives TSan a target if someone regresses it
  // to a shared generator).
  ThreadPool pool(4);
  Rng parent(1234);
  constexpr std::size_t kTasks = 64;
  std::vector<std::uint64_t> seeds(kTasks);
  for (auto& s : seeds) s = parent();
  std::vector<std::uint64_t> first_draw(kTasks, 0);
  pool.parallel_for(0, kTasks, [&](std::size_t t) {
    Rng rng(seeds[t]);
    first_draw[t] = rng();
  });
  std::vector<std::uint64_t> sorted = first_draw;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "per-task generators must not repeat each other";

  // Deterministic: a second identical pass reproduces the draws.
  std::vector<std::uint64_t> second_draw(kTasks, 0);
  pool.parallel_for(0, kTasks, [&](std::size_t t) {
    Rng rng(seeds[t]);
    second_draw[t] = rng();
  });
  EXPECT_EQ(first_draw, second_draw);
}

TEST(ThreadPoolStressTest, GlobalPoolHandlesEmptyAndTinyRanges) {
  prionn::util::parallel_for(5, 5, [](std::size_t) { FAIL(); });
  std::atomic<int> hits{0};
  prionn::util::parallel_for(0, 1, [&](std::size_t) { ++hits; });
  EXPECT_EQ(hits.load(), 1);
}

}  // namespace
