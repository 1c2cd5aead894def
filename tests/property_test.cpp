// Cross-module property-based tests: metamorphic and conservation
// invariants swept over randomised inputs (TEST_P over seeds/shapes).
// These complement the per-module unit tests by checking relations that
// must hold for *every* input, not just hand-picked ones.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/bins.hpp"
#include "embed/word2vec.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/pool.hpp"
#include "sched/burst.hpp"
#include "sched/cluster.hpp"
#include "sched/io_timeline.hpp"
#include "tensor/gemm.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using prionn::util::Rng;

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

}  // namespace

// ------------------------------------------------ GEMM random fuzzing ---

class GemmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GemmFuzz, RandomShapesMatchNaive) {
  Rng rng(GetParam());
  const auto m = static_cast<std::size_t>(rng.uniform_int(1, 70));
  const auto k = static_cast<std::size_t>(rng.uniform_int(1, 300));
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 600));
  const auto a = random_vec(m * k, GetParam() + 1);
  const auto b = random_vec(k * n, GetParam() + 2);
  std::vector<float> c_fast(m * n, 0.0f), c_ref(m * n, 0.0f);
  prionn::tensor::gemm(m, k, n, 1.0f, a.data(), b.data(), 0.0f,
                       c_fast.data());
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c_ref[i * n + j] = acc;
    }
  for (std::size_t i = 0; i < c_fast.size(); ++i)
    ASSERT_NEAR(c_fast[i], c_ref[i], 1e-3f)
        << "shape " << m << "x" << k << "x" << n << " at " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmFuzz,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u,
                                           106u, 107u, 108u));

// ---------------------------------------- relative accuracy invariants ---

class AccuracyScale : public ::testing::TestWithParam<double> {};

TEST_P(AccuracyScale, ScaleInvariant) {
  // Eq. (1) is scale-free: accuracy(k*t, k*p) == accuracy(t, p) for k > 0.
  const double k = GetParam();
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 1000.0);
    const double p = rng.uniform(0.0, 1000.0);
    EXPECT_NEAR(prionn::util::relative_accuracy(k * t, k * p),
                prionn::util::relative_accuracy(t, p), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Factors, AccuracyScale,
                         ::testing::Values(0.5, 2.0, 60.0, 1e6));

TEST(AccuracyProperties, SymmetricInArguments) {
  // max(t, p) in the denominator makes the metric symmetric.
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const double t = rng.uniform(0.0, 100.0), p = rng.uniform(0.0, 100.0);
    EXPECT_NEAR(prionn::util::relative_accuracy(t, p),
                prionn::util::relative_accuracy(p, t), 1e-12);
  }
}

// -------------------------------------------------- network gradients ---

TEST(NetworkGradient, FullBackpropMatchesFiniteDifferenceOfLoss) {
  // End-to-end check: d(cross-entropy)/d(input) through a conv stack.
  Rng rng(9);
  prionn::nn::Network net;
  net.emplace<prionn::nn::Conv2d>(1, 2, 3, 3, 1, 1, 1, rng);
  net.emplace<prionn::nn::Relu>();
  net.emplace<prionn::nn::MaxPool2d>(2, 2);
  net.emplace<prionn::nn::Flatten>();
  net.emplace<prionn::nn::Dense>(2 * 4 * 4, 3, rng);

  prionn::tensor::Tensor x({2, 1, 8, 8});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  const std::vector<std::uint32_t> y = {0, 2};

  const auto loss_of = [&](const prionn::tensor::Tensor& input) {
    auto logits = net.forward(input, false);
    return prionn::nn::softmax_cross_entropy(logits, y).value;
  };
  auto logits = net.forward(x, false);
  auto loss = prionn::nn::softmax_cross_entropy(logits, y);
  const auto grad_x = net.backward(loss.grad);

  constexpr float kEps = 1e-2f;
  for (std::size_t i = 0; i < x.size(); i += 11) {
    const float saved = x[i];
    x[i] = saved + kEps;
    const double up = loss_of(x);
    x[i] = saved - kEps;
    const double down = loss_of(x);
    x[i] = saved;
    EXPECT_NEAR(grad_x[i], (up - down) / (2.0 * kEps), 2e-2)
        << "input " << i;
  }
}

// -------------------------------------------------------- bins sweeps ---

class RuntimeBinSweep : public ::testing::TestWithParam<double> {};

TEST_P(RuntimeBinSweep, LabelDecodesWithinHalfMinute) {
  const prionn::core::RuntimeBins bins(960);
  const double minutes = GetParam();
  const double decoded = bins.minutes_of(bins.label_of(minutes));
  EXPECT_LE(std::abs(decoded - std::min(minutes, 959.0)), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Minutes, RuntimeBinSweep,
                         ::testing::Values(0.0, 0.4, 1.0, 44.0, 44.49,
                                           59.5, 100.0, 480.0, 959.0,
                                           959.4));

TEST(IoBinSweep, MonotoneOverWholeRange) {
  const prionn::core::IoBins bins(64, 1e4, 1e14);
  std::uint32_t last = 0;
  for (double b = 1.0; b < 1e15; b *= 1.31) {
    const auto label = bins.label_of(b);
    ASSERT_GE(label, last) << "at " << b;
    last = label;
  }
  EXPECT_EQ(last, 63u);
}

// -------------------------------------------------- timeline conservation ---

class TimelineMass : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimelineMass, TotalBytesConserved) {
  // Sum(series) * bucket == sum(bandwidth * duration): pro-rating must
  // neither create nor destroy IO volume.
  Rng rng(GetParam());
  prionn::sched::IoTimeline timeline(60.0);
  double expected = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double start = rng.uniform(0.0, 5000.0);
    const double duration = rng.uniform(1.0, 900.0);
    const double bw = rng.uniform(0.0, 1e6);
    timeline.add({start, start + duration, bw});
    expected += bw * duration;
  }
  double measured = 0.0;
  for (const double v : timeline.series()) measured += v * 60.0;
  EXPECT_NEAR(measured, expected, expected * 1e-9 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineMass,
                         ::testing::Values(11u, 12u, 13u, 14u));

// ---------------------------------------------- scheduler conservation ---

class SchedulerConservation : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SchedulerConservation, WorkAndJobCountConserved) {
  Rng rng(GetParam());
  std::vector<prionn::sched::SimJob> jobs;
  double t = 0.0, node_seconds = 0.0;
  for (std::uint64_t i = 0; i < 150; ++i) {
    t += rng.exponential(0.05);
    prionn::sched::SimJob j;
    j.id = i;
    j.submit_time = t;
    j.nodes = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
    j.runtime = rng.uniform(10.0, 400.0);
    j.believed_runtime = j.runtime * rng.uniform(1.0, 4.0);
    node_seconds += j.nodes * std::max(j.runtime, 1.0);
    jobs.push_back(j);
  }
  prionn::sched::ClusterSimulator sim({12, true});
  const auto schedule = sim.run(jobs);
  ASSERT_EQ(schedule.size(), jobs.size());  // every job completes once
  // Work conservation: the makespan cannot beat perfect packing.
  double makespan_end = 0.0, first_submit = jobs.front().submit_time;
  for (const auto& s : schedule) makespan_end = std::max(makespan_end, s.end_time);
  EXPECT_GE((makespan_end - first_submit) * 12.0, node_seconds * 0.999);
  // Runtimes preserved by the schedule.
  for (const auto& s : schedule)
    EXPECT_NEAR(s.end_time - s.start_time,
                std::max(jobs[s.id].runtime, 1.0), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerConservation,
                         ::testing::Values(21u, 22u, 23u));

// -------------------------------------------------- burst score duality ---

TEST(BurstScoreDuality, SwappingSeriesSwapsFalsePositivesAndNegatives) {
  Rng rng(31);
  std::vector<bool> a(400), b(400);
  for (std::size_t i = 0; i < 400; ++i) {
    a[i] = rng.bernoulli(0.08);
    b[i] = rng.bernoulli(0.08);
  }
  for (const std::size_t half : {0u, 2u, 7u}) {
    const auto ab = prionn::sched::score_bursts(a, b, half);
    const auto ba = prionn::sched::score_bursts(b, a, half);
    // An actual burst unmatched by prediction (FN) is exactly a predicted
    // burst unmatched by actual (FP) under the swapped roles. (True
    // positives do NOT swap: they count matched bursts of the respective
    // "actual" series, which differ.)
    EXPECT_EQ(ab.false_negatives, ba.false_positives);
    EXPECT_EQ(ab.false_positives, ba.false_negatives);
  }
}

// -------------------------------------------- embedding standardisation ---

TEST(EmbeddingStandardisation, FrequencyWeightedMomentsAreUnit) {
  prionn::trace::WorkloadGenerator gen(
      prionn::trace::WorkloadOptions::cab(120));
  const auto jobs = prionn::trace::completed_jobs(gen.generate());
  std::vector<std::string> corpus;
  for (const auto& j : jobs) corpus.push_back(j.script);

  prionn::embed::Word2VecOptions opts;
  opts.dimension = 4;
  opts.epochs = 1;
  const auto emb = prionn::embed::Word2VecTrainer(opts).train(corpus);

  // Recompute the frequency-weighted moments the trainer standardised.
  std::vector<std::vector<std::size_t>> docs;
  for (const auto& s : corpus)
    docs.push_back(prionn::embed::CharVocab::tokenize(s));
  const auto counts = prionn::embed::CharVocab::count_frequencies(docs);
  double total = 0.0;
  for (const auto c : counts) total += static_cast<double>(c);
  for (std::size_t d = 0; d < 4; ++d) {
    double mean = 0.0, var = 0.0;
    for (std::size_t t = 0; t < prionn::embed::CharVocab::kSize; ++t)
      mean += static_cast<double>(counts[t]) * emb.vector(t)[d];
    mean /= total;
    for (std::size_t t = 0; t < prionn::embed::CharVocab::kSize; ++t) {
      const double diff = emb.vector(t)[d] - mean;
      var += static_cast<double>(counts[t]) * diff * diff;
    }
    var /= total;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

// ------------------------------------------------- generator invariants ---

class GeneratorSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeeds, StructuralInvariantsHoldForAnySeed) {
  prionn::trace::WorkloadGenerator gen(
      prionn::trace::WorkloadOptions::cab(400, GetParam()));
  const auto jobs = gen.generate();
  ASSERT_EQ(jobs.size(), 400u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& j = jobs[i];
    if (i) {
      EXPECT_GE(j.submit_time, jobs[i - 1].submit_time);
    }
    EXPECT_FALSE(j.script.empty());
    EXPECT_GE(j.requested_nodes, 1u);
    EXPECT_LE(j.requested_minutes, 960.0);
    if (!j.canceled) {
      EXPECT_GE(j.runtime_minutes, 1.0);
      EXPECT_LE(j.runtime_minutes, 960.0);
      EXPECT_GT(j.bytes_read, 0.0);
      EXPECT_GT(j.bytes_written, 0.0);
      EXPECT_GE(j.start_time, j.submit_time);
      EXPECT_NEAR(j.end_time - j.start_time, j.runtime_minutes * 60.0,
                  1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeeds,
                         ::testing::Values(1u, 42u, 999u, 31337u));
