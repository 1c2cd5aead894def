// Tests for the cluster simulator, snapshot turnaround prediction, the IO
// timeline, and burst detection/scoring.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "sched/burst.hpp"
#include "sched/cluster.hpp"
#include "sched/io_timeline.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace sc = prionn::sched;

namespace {

sc::SimJob job(std::uint64_t id, double submit, std::uint32_t nodes,
               double runtime, double believed = -1.0) {
  return {id, submit, nodes, runtime, believed < 0.0 ? runtime : believed};
}

std::map<std::uint64_t, sc::ScheduledJob> by_id(
    const std::vector<sc::ScheduledJob>& xs) {
  std::map<std::uint64_t, sc::ScheduledJob> m;
  for (const auto& x : xs) m[x.id] = x;
  return m;
}

}  // namespace

// ---------------------------------------------------------- simulator ---

TEST(Cluster, SingleJobStartsImmediately) {
  sc::ClusterSimulator sim({4, true});
  const auto sched = sim.run({job(1, 10.0, 2, 100.0)});
  ASSERT_EQ(sched.size(), 1u);
  EXPECT_DOUBLE_EQ(sched[0].start_time, 10.0);
  EXPECT_DOUBLE_EQ(sched[0].end_time, 110.0);
  EXPECT_DOUBLE_EQ(sched[0].turnaround(), 100.0);
}

TEST(Cluster, ParallelJobsShareNodes) {
  sc::ClusterSimulator sim({4, true});
  const auto sched =
      by_id(sim.run({job(1, 0.0, 2, 100.0), job(2, 0.0, 2, 100.0)}));
  EXPECT_DOUBLE_EQ(sched.at(1).start_time, 0.0);
  EXPECT_DOUBLE_EQ(sched.at(2).start_time, 0.0);
}

TEST(Cluster, QueuedJobWaitsForNodes) {
  sc::ClusterSimulator sim({4, true});
  const auto sched =
      by_id(sim.run({job(1, 0.0, 4, 100.0), job(2, 1.0, 4, 50.0)}));
  EXPECT_DOUBLE_EQ(sched.at(2).start_time, 100.0);
  EXPECT_DOUBLE_EQ(sched.at(2).turnaround(), 149.0);
}

TEST(Cluster, FcfsOrderPreservedWithoutBackfillOpportunity) {
  sc::ClusterSimulator sim({2, true});
  const auto sched = by_id(sim.run({
      job(1, 0.0, 2, 100.0),
      job(2, 1.0, 2, 10.0),
      job(3, 2.0, 2, 10.0),
  }));
  EXPECT_DOUBLE_EQ(sched.at(2).start_time, 100.0);
  EXPECT_DOUBLE_EQ(sched.at(3).start_time, 110.0);
}

TEST(Cluster, EasyBackfillFillsHoles) {
  // Head job (2) needs the whole machine and must wait for job 1; a short
  // 1-node job (3) can run in the hole without delaying 2's reservation.
  sc::ClusterSimulator sim({4, true});
  const auto sched = by_id(sim.run({
      job(1, 0.0, 3, 100.0),
      job(2, 1.0, 4, 50.0),
      job(3, 2.0, 1, 50.0),
  }));
  EXPECT_DOUBLE_EQ(sched.at(3).start_time, 2.0);   // backfilled at submit
  EXPECT_DOUBLE_EQ(sched.at(2).start_time, 100.0);  // reservation kept
}

TEST(Cluster, NoBackfillWhenDisabled) {
  sc::ClusterSimulator sim({4, false});
  const auto sched = by_id(sim.run({
      job(1, 0.0, 3, 100.0),
      job(2, 1.0, 4, 50.0),
      job(3, 2.0, 1, 50.0),
  }));
  EXPECT_GE(sched.at(3).start_time, 100.0);  // strict FCFS behind job 2
}

TEST(Cluster, BackfillRespectsShadowTime) {
  // The backfill candidate (3) is long (believed): starting it would delay
  // the head job's reservation, so EASY must *not* start it in the hole —
  // it uses a node the head job needs at shadow time.
  sc::ClusterSimulator sim({4, true});
  const auto sched = by_id(sim.run({
      job(1, 0.0, 3, 100.0),
      job(2, 1.0, 4, 50.0),
      job(3, 2.0, 1, 500.0),
  }));
  EXPECT_GE(sched.at(3).start_time, 100.0);
}

TEST(Cluster, WrongBelievedRuntimeChangesBackfill) {
  // Same workload as above, but job 3 *claims* to be short (believed 10 s)
  // while actually running 500 s: EASY backfills it based on the claim and
  // the head job is delayed — the mechanism by which bad user estimates
  // hurt schedules (and PRIONN's motivation).
  sc::ClusterSimulator sim({4, true});
  const auto sched = by_id(sim.run({
      job(1, 0.0, 3, 100.0),
      job(2, 1.0, 4, 50.0),
      job(3, 2.0, 1, 500.0, 10.0),
  }));
  EXPECT_DOUBLE_EQ(sched.at(3).start_time, 2.0);
  EXPECT_GT(sched.at(2).start_time, 100.0);
}

TEST(Cluster, CapacityNeverExceeded) {
  // Property: reconstructing node usage from the schedule never exceeds
  // the machine size.
  prionn::util::Rng rng(5);
  std::vector<sc::SimJob> jobs;
  double t = 0.0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    t += rng.exponential(0.05);
    jobs.push_back(job(i, t, static_cast<std::uint32_t>(rng.uniform_int(1, 16)),
                       rng.uniform(10.0, 500.0)));
  }
  sc::ClusterSimulator sim({16, true});
  const auto sched = sim.run(jobs);
  ASSERT_EQ(sched.size(), jobs.size());

  std::vector<std::pair<double, std::int64_t>> events;
  for (const auto& s : sched) {
    const auto nodes = static_cast<std::int64_t>(jobs[s.id].nodes);
    events.emplace_back(s.start_time, nodes);
    events.emplace_back(s.end_time, -nodes);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              // Process releases before acquisitions at equal instants.
              return a.first < b.first ||
                     (a.first == b.first && a.second < b.second);
            });
  std::int64_t used = 0;
  for (const auto& [time, delta] : events) {
    used += delta;
    EXPECT_LE(used, 16);
    EXPECT_GE(used, 0);
  }
}

TEST(Cluster, StartNeverBeforeSubmit) {
  prionn::util::Rng rng(6);
  std::vector<sc::SimJob> jobs;
  double t = 0.0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    t += rng.exponential(0.1);
    jobs.push_back(job(i, t, 1 + static_cast<std::uint32_t>(i % 4),
                       rng.uniform(5.0, 100.0)));
  }
  sc::ClusterSimulator sim({8, true});
  for (const auto& s : sim.run(jobs))
    EXPECT_GE(s.start_time, s.submit_time);
}

TEST(Cluster, OutOfOrderSubmissionThrows) {
  sc::ClusterSimulator sim({4, true});
  sim.submit(job(1, 100.0, 1, 10.0));
  EXPECT_THROW(sim.submit(job(2, 50.0, 1, 10.0)), std::invalid_argument);
}

TEST(Cluster, OversizedJobThrows) {
  sc::ClusterSimulator sim({4, true});
  EXPECT_THROW(sim.run({job(1, 0.0, 5, 10.0)}), std::invalid_argument);
}

TEST(Cluster, OversizedJobThrowsWithoutBackfill) {
  // Without backfill an oversized head would starve every later job; it
  // is rejected at submission instead of deadlocking the drain.
  sc::ClusterSimulator sim({4, false});
  sim.submit(job(1, 0.0, 4, 100.0));
  EXPECT_THROW(sim.submit(job(2, 1.0, 5, 10.0)), std::invalid_argument);
  EXPECT_EQ(sim.queued_count(), 0u);
  sim.submit(job(3, 2.0, 2, 10.0));
  sim.drain();
  EXPECT_EQ(sim.completed().size(), 2u);
}

TEST(Cluster, OversizedHeadThrowsWhenNoCandidateFits) {
  // The machine is full and nothing queued behind the head could
  // backfill, but a head larger than the machine is still an error.
  sc::ClusterSimulator sim({4, true});
  sim.submit(job(1, 0.0, 4, 100.0));
  EXPECT_THROW(sim.submit(job(2, 1.0, 5, 10.0)), std::invalid_argument);
}

TEST(Cluster, ZeroNodeClusterRejected) {
  EXPECT_THROW(sc::ClusterSimulator({0, true}), std::invalid_argument);
}

TEST(Cluster, DrainLeavesIdleSystem) {
  sc::ClusterSimulator sim({2, true});
  sim.submit(job(1, 0.0, 1, 50.0));
  sim.submit(job(2, 0.0, 1, 70.0));
  sim.drain();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.completed().size(), 2u);
  EXPECT_EQ(sim.free_nodes(), 2u);
}

// ------------------------------------------- snapshot turnaround (4.2) ---

TEST(Snapshot, PerfectPredictionsValidAndExactForFinalJob) {
  // Even with the actual runtimes, a snapshot cannot anticipate *future*
  // arrivals, and EASY backfill is non-monotone in the job set (Graham's
  // scheduling anomalies: an extra job can speed up or slow down another
  // job's completion). What IS guaranteed: every prediction is positive
  // and finite, and the prediction for the final submission — after which
  // nothing else arrives — reproduces the realised turnaround exactly.
  prionn::util::Rng rng(7);
  std::vector<sc::SimJob> jobs;
  double t = 0.0;
  for (std::uint64_t i = 0; i < 120; ++i) {
    t += rng.exponential(0.02);
    jobs.push_back(job(i, t, static_cast<std::uint32_t>(rng.uniform_int(1, 8)),
                       rng.uniform(30.0, 900.0)));
  }
  const auto actual_runtime = [&](std::uint64_t id) {
    return jobs[id].runtime;
  };

  sc::ClusterSimulator sim({8, true});
  std::vector<double> predicted(jobs.size());
  for (const auto& j : jobs) {
    sim.submit(j);
    predicted[j.id] = sim.snapshot_turnaround(j.id, actual_runtime);
    EXPECT_GE(predicted[j.id], j.runtime - 2.0) << "job " << j.id;
    EXPECT_LT(predicted[j.id], 1e9) << "job " << j.id;
  }
  sim.drain();
  const std::uint64_t last = jobs.back().id;
  for (const auto& s : sim.completed()) {
    if (s.id == last) {
      EXPECT_NEAR(predicted[last], s.turnaround(), 2.0);
    }
  }
}

TEST(Snapshot, ExactWhenNoContention) {
  // On an uncontended machine every snapshot prediction is exact: the job
  // starts immediately and runs for its (perfectly predicted) runtime.
  sc::ClusterSimulator sim({64, true});
  std::vector<sc::SimJob> jobs;
  for (std::uint64_t i = 0; i < 20; ++i)
    jobs.push_back(job(i, static_cast<double>(i), 1, 100.0 + 5.0 * i));
  std::vector<double> predicted(jobs.size());
  for (const auto& j : jobs) {
    sim.submit(j);
    predicted[j.id] =
        sim.snapshot_turnaround(j.id, [&](std::uint64_t id) {
          return jobs[id].runtime;
        });
  }
  sim.drain();
  for (const auto& s : sim.completed())
    EXPECT_NEAR(predicted[s.id], s.turnaround(), 1.5);
}

TEST(Snapshot, UnknownJobReturnsNegative) {
  sc::ClusterSimulator sim({4, true});
  sim.submit(job(1, 0.0, 1, 10.0));
  EXPECT_LT(sim.snapshot_turnaround(999, [](std::uint64_t) { return 1.0; }),
            0.0);
}

TEST(Snapshot, DoesNotPerturbLiveSimulation) {
  sc::ClusterSimulator sim({4, true});
  sim.submit(job(1, 0.0, 2, 100.0));
  sim.submit(job(2, 1.0, 4, 50.0));
  const auto before_queue = sim.queued_count();
  const auto before_now = sim.now();
  const auto before_completed = sim.completed().size();
  const auto before_free = sim.free_nodes();
  (void)sim.snapshot_turnaround(2, [](std::uint64_t) { return 1000.0; });
  EXPECT_EQ(sim.queued_count(), before_queue);
  EXPECT_DOUBLE_EQ(sim.now(), before_now);
  EXPECT_EQ(sim.completed().size(), before_completed);
  EXPECT_EQ(sim.free_nodes(), before_free);
  sim.drain();
  EXPECT_EQ(sim.completed().size(), 2u);
}

TEST(Snapshot, BadPredictionsShiftTurnaround) {
  // If predictions say the running job is nearly done, the queued job's
  // predicted turnaround must be far smaller than reality.
  sc::ClusterSimulator sim({4, true});
  sim.submit(job(1, 0.0, 4, 1000.0));
  sim.submit(job(2, 1.0, 4, 10.0));
  const double optimistic =
      sim.snapshot_turnaround(2, [](std::uint64_t) { return 5.0; });
  const double realistic =
      sim.snapshot_turnaround(2, [](std::uint64_t id) {
        return id == 1 ? 1000.0 : 10.0;
      });
  EXPECT_LT(optimistic, realistic);
}

TEST(Snapshot, RunningTargetEndsAtRemainingPrediction) {
  // A running target's end is fixed by its own prediction: now plus the
  // predicted remainder, floored at one second (a NaN floors to it too).
  sc::ClusterSimulator sim({4, true});
  sim.submit(job(1, 0.0, 2, 100.0));
  sim.submit(job(2, 30.0, 4, 500.0));
  ASSERT_EQ(sim.running_count(), 1u);
  // Job 1 was submitted and started at 0, so elapsed == now - 0 and the
  // turnaround is now + remaining - 0.
  const double now = sim.now();
  const auto turnaround = [&](double pred) {
    return sim.snapshot_turnaround(1, [pred](std::uint64_t) { return pred; });
  };
  EXPECT_EQ(turnaround(70.5), now + std::max(1.0, 70.5 - now));
  EXPECT_EQ(turnaround(10.0), now + 1.0);
  EXPECT_EQ(turnaround(std::nan("")), now + 1.0);
}

TEST(Snapshot, BackfilledTargetMatchesHandSchedule) {
  // 4 nodes. A (2 nodes) runs to 100 and E (1 node) to 20; the head B
  // needs all 4, so its reservation is at 100. The target C (2 nodes,
  // 30 s) cannot start at submission with 1 node free; when E ends at 20
  // it backfills past B (20 + 30 <= 100) and ends at 50.
  const std::vector<sc::SimJob> jobs = {
      job(0, 0.0, 2, 100.0), job(1, 0.0, 1, 20.0), job(2, 1.0, 4, 50.0),
      job(3, 2.0, 2, 30.0)};
  const auto predicted = [&](std::uint64_t id) { return jobs[id].runtime; };
  for (const bool backfill : {true, false}) {
    sc::ClusterSimulator sim({4, backfill});
    for (const auto& j : jobs) sim.submit(j);
    ASSERT_EQ(sim.queued_count(), 2u);
    // Without backfill C waits for B: B runs 100..150, C 150..180.
    const double expected = backfill ? 50.0 - 2.0 : 180.0 - 2.0;
    EXPECT_EQ(sim.snapshot_turnaround(3, predicted), expected);
    sim.drain();
    EXPECT_EQ(by_id(sim.completed())[3].turnaround(), expected);
  }
}

TEST(Snapshot, NonFiniteTargetPredictionReturnsNegative) {
  // A target predicted never to finish has no turnaround, whether it is
  // already running or still queued when the snapshot is taken.
  sc::ClusterSimulator sim({4, true});
  sim.submit(job(1, 0.0, 2, 100.0));
  sim.submit(job(2, 1.0, 4, 50.0));
  const double inf = std::numeric_limits<double>::infinity();
  const auto infinite_for = [inf](std::uint64_t target) {
    return [inf, target](std::uint64_t id) {
      return id == target ? inf : 10.0;
    };
  };
  EXPECT_LT(sim.snapshot_turnaround(1, infinite_for(1)), 0.0);
  EXPECT_LT(sim.snapshot_turnaround(2, infinite_for(2)), 0.0);
}

namespace {

// FNV-1a over the bit patterns of 64-bit words.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
};

}  // namespace

TEST(Snapshot, PredictionsMatchPinnedDigest) {
  // Every snapshot result, an unknown-id probe per submission and the
  // final schedule, over two Cab traces at a contended and an uncontended
  // node count, with backfill on and off. The digest was taken from a
  // replay that ran every target to completion, so it pins both the
  // events replayed and the arithmetic of each answer.
  Fnv1a digest;
  for (const std::uint64_t seed : {2016u, 2017u}) {
    prionn::trace::WorkloadGenerator gen(
        prionn::trace::WorkloadOptions::cab(1500, seed));
    const auto records = prionn::trace::completed_jobs(gen.generate());
    std::vector<sc::SimJob> jobs;
    for (std::size_t i = 0; i < records.size(); ++i)
      jobs.push_back(job(i, records[i].submit_time,
                         std::max<std::uint32_t>(1, records[i].requested_nodes),
                         std::max(1.0, records[i].runtime_minutes * 60.0),
                         std::max(1.0, records[i].requested_minutes * 60.0)));
    const auto predicted = [&jobs](std::uint64_t id) {
      return jobs[id].believed_runtime;
    };
    for (const std::uint32_t nodes : {400u, 1296u}) {
      for (const bool backfill : {true, false}) {
        sc::ClusterSimulator sim({nodes, backfill});
        for (const auto& j : jobs) {
          sim.submit(j);
          digest.add(sim.snapshot_turnaround(j.id, predicted));
          digest.add(sim.snapshot_turnaround(jobs.size() + j.id, predicted));
        }
        sim.drain();
        for (const auto& s : sim.completed()) {
          digest.add(s.id);
          digest.add(s.submit_time);
          digest.add(s.start_time);
          digest.add(s.end_time);
        }
      }
    }
  }
  EXPECT_EQ(digest.h, 0x8e31a6960b43986dull) << std::hex << digest.h;
}

// ----------------------------------------------------------- timeline ---

TEST(IoTimeline, SingleIntervalFullBuckets) {
  sc::IoTimeline tl(60.0);
  tl.add({0.0, 120.0, 100.0});
  ASSERT_EQ(tl.buckets(), 2u);
  EXPECT_DOUBLE_EQ(tl.series()[0], 100.0);
  EXPECT_DOUBLE_EQ(tl.series()[1], 100.0);
}

TEST(IoTimeline, PartialBucketsProRated) {
  sc::IoTimeline tl(60.0);
  tl.add({30.0, 90.0, 100.0});
  ASSERT_EQ(tl.buckets(), 2u);
  EXPECT_DOUBLE_EQ(tl.series()[0], 50.0);
  EXPECT_DOUBLE_EQ(tl.series()[1], 50.0);
}

TEST(IoTimeline, OverlappingIntervalsSum) {
  sc::IoTimeline tl(60.0);
  tl.add({0.0, 60.0, 10.0});
  tl.add({0.0, 60.0, 30.0});
  EXPECT_DOUBLE_EQ(tl.series()[0], 40.0);
}

TEST(IoTimeline, DegenerateIntervalsIgnored) {
  sc::IoTimeline tl(60.0);
  tl.add({100.0, 100.0, 50.0});
  tl.add({100.0, 50.0, 50.0});
  tl.add({0.0, 60.0, 0.0});
  EXPECT_EQ(tl.buckets(), 0u);
}

TEST(IoTimeline, NegativeStartClamped) {
  sc::IoTimeline tl(60.0);
  tl.add({-30.0, 60.0, 100.0});
  ASSERT_EQ(tl.buckets(), 1u);
  EXPECT_DOUBLE_EQ(tl.series()[0], 100.0);
}

TEST(IoTimeline, ResizeAligns) {
  sc::IoTimeline tl(60.0);
  tl.add({0.0, 60.0, 5.0});
  tl.resize(4);
  EXPECT_EQ(tl.buckets(), 4u);
  EXPECT_DOUBLE_EQ(tl.series()[3], 0.0);
}

TEST(IoTimeline, RejectsBadBucketSize) {
  EXPECT_THROW(sc::IoTimeline(0.0), std::invalid_argument);
}

// -------------------------------------------------------------- bursts ---

TEST(Burst, ThresholdIsMeanPlusSigma) {
  const std::vector<double> series = {0, 0, 0, 0, 10};
  sc::BurstDetector det({1.0});
  const double mean = 2.0, sd = 4.0;
  EXPECT_NEAR(det.threshold_of(series), mean + sd, 1e-9);
}

TEST(Burst, DetectFlagsAboveThreshold) {
  sc::BurstDetector det;
  const auto bursts = det.detect({1.0, 5.0, 2.0}, 2.5);
  EXPECT_FALSE(bursts[0]);
  EXPECT_TRUE(bursts[1]);
  EXPECT_FALSE(bursts[2]);
}

TEST(Burst, PerfectPredictionPerfectScore) {
  const std::vector<bool> b = {false, true, false, true, false};
  const auto s = sc::score_bursts(b, b, 0);
  EXPECT_EQ(s.true_positives, 2u);
  EXPECT_EQ(s.false_positives, 0u);
  EXPECT_EQ(s.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(s.sensitivity(), 1.0);
  EXPECT_DOUBLE_EQ(s.precision(), 1.0);
}

TEST(Burst, WindowToleranceMatchesNearbyPrediction) {
  const std::vector<bool> actual = {false, false, true, false, false};
  const std::vector<bool> predicted = {true, false, false, false, false};
  // Offset of 2 buckets: missed with half_window 1, hit with 2.
  const auto tight = sc::score_bursts(actual, predicted, 1);
  EXPECT_EQ(tight.true_positives, 0u);
  EXPECT_EQ(tight.false_negatives, 1u);
  EXPECT_EQ(tight.false_positives, 1u);
  const auto loose = sc::score_bursts(actual, predicted, 2);
  EXPECT_EQ(loose.true_positives, 1u);
  EXPECT_EQ(loose.false_positives, 0u);
}

TEST(Burst, SensitivityPrecisionMonotoneInWindow) {
  // Widening the window can only help — the property behind the rising
  // curves of Figs. 13 and 15.
  prionn::util::Rng rng(8);
  std::vector<bool> actual(500), predicted(500);
  for (std::size_t i = 0; i < 500; ++i) {
    actual[i] = rng.bernoulli(0.05);
    predicted[i] = rng.bernoulli(0.05);
  }
  double last_sens = -1.0, last_prec = -1.0;
  for (const std::size_t half : {0u, 2u, 5u, 10u, 30u}) {
    const auto s = sc::score_bursts(actual, predicted, half);
    EXPECT_GE(s.sensitivity(), last_sens);
    EXPECT_GE(s.precision(), last_prec);
    last_sens = s.sensitivity();
    last_prec = s.precision();
  }
}

TEST(Burst, NoActualBurstsGivesZeroSensitivityDenominator) {
  const std::vector<bool> none(10, false);
  const std::vector<bool> some = {true, false, false, false, false,
                                  false, false, false, false, false};
  const auto s = sc::score_bursts(none, some, 1);
  EXPECT_DOUBLE_EQ(s.sensitivity(), 0.0);
  EXPECT_EQ(s.false_positives, 1u);
}

// ------------------------------------------------- IO-aware scheduler ---

namespace {

sc::SimJob io_job(std::uint64_t id, double submit, std::uint32_t nodes,
                  double runtime, double bw) {
  sc::SimJob j = job(id, submit, nodes, runtime);
  j.io_bandwidth = bw;
  return j;
}

/// Actual bandwidths by id; the tests predict them perfectly.
std::vector<double> bandwidths_of(const std::vector<sc::SimJob>& jobs) {
  std::vector<double> bw(jobs.size(), 0.0);
  for (const auto& j : jobs)
    if (j.id < bw.size()) bw[j.id] = j.io_bandwidth;
  return bw;
}

struct IoRun {
  std::vector<sc::ScheduledJob> schedule;
  sc::ScheduleOutcome outcome;
};

IoRun run_io(const sc::ClusterOptions& options,
             const std::vector<sc::SimJob>& jobs) {
  IoRun r;
  r.schedule = sc::ClusterSimulator(options).run(jobs);
  r.outcome = sc::schedule_outcome(r.schedule, bandwidths_of(jobs),
                                   options.io_cap);
  return r;
}

/// A 900-job Cab trace with perfectly predicted IO bandwidths, and the
/// mean of those bandwidths.
std::pair<std::vector<sc::SimJob>, double> cab_io_jobs(std::uint64_t seed) {
  prionn::trace::WorkloadGenerator gen(
      prionn::trace::WorkloadOptions::cab(900, seed));
  const auto records = prionn::trace::completed_jobs(gen.generate());
  std::vector<sc::SimJob> jobs;
  double bw_sum = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    sc::SimJob j = job(i, records[i].submit_time,
                       std::max<std::uint32_t>(1, records[i].requested_nodes),
                       std::max(1.0, records[i].runtime_minutes * 60.0),
                       std::max(1.0, records[i].requested_minutes * 60.0));
    j.io_bandwidth = records[i].read_bandwidth() + records[i].write_bandwidth();
    bw_sum += j.io_bandwidth;
    jobs.push_back(j);
  }
  return {jobs, bw_sum / static_cast<double>(jobs.size())};
}

}  // namespace

TEST(IoAware, ZeroCapBehavesLikePlainScheduler) {
  const auto result = run_io({4, true, 0.0, 3600.0},
                             {io_job(1, 0.0, 2, 100.0, 1e9),
                              io_job(2, 0.0, 2, 100.0, 1e9)});
  ASSERT_EQ(result.schedule.size(), 2u);
  for (const auto& s : result.schedule) EXPECT_DOUBLE_EQ(s.start_time, 0.0);
  EXPECT_EQ(result.outcome.oversubscribed_minutes, 0u);  // cap disabled
}

TEST(IoAware, CapSerialisesIoHeavyJobs) {
  // Two IO-heavy jobs that fit node-wise but together exceed the cap:
  // the IO-aware policy must run them one after the other.
  const auto result = run_io({8, true, 100.0, 3600.0},
                             {io_job(1, 0.0, 2, 120.0, 80.0),
                              io_job(2, 0.0, 2, 120.0, 80.0)});
  ASSERT_EQ(result.schedule.size(), 2u);
  const double s0 = result.schedule[0].start_time;
  const double s1 = result.schedule[1].start_time;
  EXPECT_NEAR(std::abs(s1 - s0), 120.0, 1.0);
  EXPECT_EQ(result.outcome.oversubscribed_minutes, 0u);
}

TEST(IoAware, LowIoJobsBackfillPastIoBlockedHead) {
  // Head blocked on IO; a later low-IO job can still run.
  const auto result = run_io({8, true, 100.0, 3600.0}, {
      io_job(1, 0.0, 2, 300.0, 90.0),  // running, nearly saturates the cap
      io_job(2, 1.0, 2, 100.0, 50.0),  // head: blocked on IO
      io_job(3, 2.0, 2, 100.0, 5.0),   // low IO: should backfill
  });
  const auto by = by_id(result.schedule);
  EXPECT_GE(by.at(2).start_time, 300.0);  // waits for job 1's bandwidth
  EXPECT_NEAR(by.at(3).start_time, 2.0, 1.0);
}

TEST(IoAware, StarvationGuardReleasesHead) {
  // A single job whose predicted IO alone exceeds the cap must still run
  // once the hold bound expires.
  const auto result = run_io({4, true, 10.0, /*max_io_hold=*/60.0},
                             {io_job(1, 0.0, 1, 50.0, 1e6)});
  ASSERT_EQ(result.schedule.size(), 1u);
  EXPECT_LE(result.schedule[0].start_time, 61.0);
}

TEST(IoAware, HoldExpiryStartsHeadOnRoundedInstant) {
  // submit + hold - submit != hold for this submit time: a start check
  // that recomputes the elapsed hold misses the release event it fired
  // on. The head must start exactly at the stored release instant.
  const double submit = 43.010378886099154;
  ASSERT_NE((submit + 60.0) - submit, 60.0);
  const auto result = run_io({4, true, 10.0, /*max_io_hold=*/60.0},
                             {io_job(1, submit, 1, 50.0, 1e6)});
  ASSERT_EQ(result.schedule.size(), 1u);
  EXPECT_EQ(result.schedule[0].start_time, submit + 60.0);
}

TEST(IoAware, StaleHoldDoesNotStallDrain) {
  // On this trace a queue head is IO-held, then loses its nodes to
  // backfilled jobs before its release; the drain must wait for the next
  // completion instead of revisiting the passed release forever.
  const auto [jobs, mean_bw] = cab_io_jobs(1);
  const auto result = run_io({300, true, 2.0 * mean_bw, 600.0}, jobs);
  ASSERT_EQ(result.schedule.size(), jobs.size());
  for (const auto& s : result.schedule) EXPECT_GE(s.start_time, s.submit_time);
}

TEST(IoAware, ReducesOversubscriptionVsObliviousPolicy) {
  // Property at workload scale: with accurate predictions, the IO-aware
  // policy produces no more over-cap minutes than the oblivious one.
  prionn::util::Rng rng(11);
  std::vector<sc::SimJob> jobs;
  double t = 0.0;
  for (std::uint64_t i = 0; i < 150; ++i) {
    t += rng.exponential(0.01);
    jobs.push_back(io_job(i, t,
                          static_cast<std::uint32_t>(rng.uniform_int(1, 4)),
                          rng.uniform(60.0, 1200.0),
                          rng.bernoulli(0.25) ? rng.uniform(40.0, 90.0)
                                              : rng.uniform(0.1, 5.0)));
  }
  const double cap = 120.0;
  const auto r_oblivious = run_io({16, true, 0.0, 3600.0}, jobs);
  const auto r_aware = run_io({16, true, cap, 3600.0}, jobs);
  const auto over_oblivious =
      sc::count_over_cap_minutes(r_oblivious.outcome.actual_io_series, cap);
  const auto over_aware =
      sc::count_over_cap_minutes(r_aware.outcome.actual_io_series, cap);
  EXPECT_LE(over_aware, over_oblivious);
  // Both policies complete every job.
  EXPECT_EQ(r_aware.schedule.size(), jobs.size());
  EXPECT_EQ(r_oblivious.schedule.size(), jobs.size());
  // The IO-aware policy trades some wait time for the IO guarantee.
  EXPECT_GE(r_aware.outcome.mean_wait_seconds,
            r_oblivious.outcome.mean_wait_seconds - 1.0);
}

TEST(IoAware, RejectsBadOptions) {
  EXPECT_THROW(sc::ClusterSimulator({0, true, 0.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(sc::ClusterSimulator({4, true, -1.0, 1.0}),
               std::invalid_argument);
}

TEST(IoAware, CountOverCapMinutes) {
  EXPECT_EQ(sc::count_over_cap_minutes({1.0, 5.0, 3.0}, 2.0), 2u);
  EXPECT_EQ(sc::count_over_cap_minutes({}, 2.0), 0u);
}

TEST(IoAware, SweepMatchesPinnedDigest) {
  // Schedules and outcome metrics over two Cab traces at a contended and
  // an uncontended node count, backfill on and off, IO caps of 0, 2, 10
  // and 40 times the mean job bandwidth, and holds of 10 minutes and 4
  // hours: 64 configurations, about 25k jobs that wait. The digest pins
  // the IO-aware schedules bit for bit.
  Fnv1a digest;
  for (const std::uint64_t seed : {1u, 2016u}) {
    const auto [jobs, mean_bw] = cab_io_jobs(seed);
    for (const std::uint32_t nodes : {300u, 1296u})
      for (const bool backfill : {true, false})
        for (const double cap : {0.0, 2.0, 10.0, 40.0})
          for (const double hold : {600.0, 4.0 * 3600.0}) {
            const auto r = run_io({nodes, backfill, cap * mean_bw, hold}, jobs);
            for (const auto& s : r.schedule) {
              digest.add(s.id);
              digest.add(s.submit_time);
              digest.add(s.start_time);
              digest.add(s.end_time);
            }
            for (const double v : r.outcome.actual_io_series) digest.add(v);
            digest.add(r.outcome.mean_wait_seconds);
            digest.add(r.outcome.mean_slowdown);
            digest.add(static_cast<std::uint64_t>(
                r.outcome.oversubscribed_minutes));
          }
  }
  EXPECT_EQ(digest.h, 0x94dce5a212938b98ull) << std::hex << digest.h;
}

// -------------------------------------------- end-to-end trace replay ---

TEST(Cluster, ReplaysGeneratedTrace) {
  prionn::trace::WorkloadGenerator gen(
      prionn::trace::WorkloadOptions::cab(400));
  const auto jobs = prionn::trace::completed_jobs(gen.generate());
  std::vector<sc::SimJob> sim_jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    sim_jobs.push_back(job(i, jobs[i].submit_time, jobs[i].requested_nodes,
                           jobs[i].runtime_minutes * 60.0,
                           jobs[i].requested_minutes * 60.0));
  sc::ClusterSimulator sim({1296, true});
  const auto sched = sim.run(sim_jobs);
  EXPECT_EQ(sched.size(), jobs.size());
  for (const auto& s : sched) {
    EXPECT_GE(s.start_time, s.submit_time);
    EXPECT_GT(s.end_time, s.start_time);
  }
}
