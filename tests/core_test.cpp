// Tests for PRIONN's core: value bins, the script-to-image mapping with
// all four transforms, the model factory, the predictor facade, the online
// trainer, and the phase-2 pipeline helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

#include "core/bins.hpp"
#include "core/model_zoo.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "core/predictor.hpp"
#include "core/script_image.hpp"
#include "embed/word2vec.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

namespace core = prionn::core;
namespace tr = prionn::trace;

// ----------------------------------------------------------------- bins ---

TEST(RuntimeBins, PaperConfigurationRoundTrips) {
  core::RuntimeBins bins(960);
  EXPECT_EQ(bins.bins(), 960u);
  EXPECT_EQ(bins.label_of(0.0), 0u);
  EXPECT_EQ(bins.label_of(44.4), 44u);
  EXPECT_EQ(bins.label_of(44.6), 45u);
  EXPECT_EQ(bins.label_of(959.0), 959u);
  EXPECT_EQ(bins.label_of(5000.0), 959u);  // clamped at the 16 h cap
  EXPECT_DOUBLE_EQ(bins.minutes_of(44), 44.0);
}

TEST(RuntimeBins, NegativeClampsToZero) {
  core::RuntimeBins bins(960);
  EXPECT_EQ(bins.label_of(-5.0), 0u);
}

TEST(IoBins, MonotoneAndRoundTripWithinBinWidth) {
  core::IoBins bins(64, 1e4, 1e14);
  std::uint32_t last = 0;
  for (double b = 1e5; b < 1e13; b *= 3.7) {
    const auto label = bins.label_of(b);
    EXPECT_GE(label, last);
    last = label;
    // Decoding must land within one bin width (factor ~1.43 for 64 bins
    // over 10 decades).
    const double decoded = bins.bytes_of(label);
    EXPECT_LT(std::abs(std::log(decoded / b)), std::log(1e10) / 64.0);
  }
}

TEST(IoBins, EdgesClamp) {
  core::IoBins bins(64, 1e4, 1e14);
  EXPECT_EQ(bins.label_of(0.0), 0u);
  EXPECT_EQ(bins.label_of(1e20), 63u);
}

TEST(Bins, RejectInvalid) {
  EXPECT_THROW(core::RuntimeBins(0), std::invalid_argument);
  EXPECT_THROW(core::IoBins(0), std::invalid_argument);
  EXPECT_THROW(core::IoBins(8, 10.0, 1.0), std::invalid_argument);
}

// --------------------------------------------------------- script image ---

namespace {

prionn::embed::CharEmbedding tiny_embedding(std::size_t dim = 4) {
  std::vector<float> table(prionn::embed::CharVocab::kSize * dim);
  for (std::size_t i = 0; i < table.size(); ++i)
    table[i] = static_cast<float>(i % 7) * 0.1f;
  return {dim, std::move(table)};
}

}  // namespace

TEST(ScriptImage, GridPadsAndCrops) {
  core::ScriptImageOptions opts;
  opts.rows = 4;
  opts.cols = 6;
  opts.transform = core::Transform::kBinary;
  const core::ScriptImageMapper mapper(opts);
  const auto grid = mapper.to_grid("ab\nlongerline\n");
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0], "ab    ");
  EXPECT_EQ(grid[1], "longer");  // cropped at 6 columns
  EXPECT_EQ(grid[2], "      ");  // padded empty line
}

TEST(ScriptImage, BinaryTransformSeparatesWhitespace) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 4;
  opts.transform = core::Transform::kBinary;
  const core::ScriptImageMapper mapper(opts);
  const auto img = mapper.map_2d("a b\n");
  EXPECT_EQ(mapper.channels(), 1u);
  EXPECT_EQ(img.shape(), (prionn::tensor::Shape{1, 4, 4}));
  EXPECT_EQ(img.at(0, 0, 0), 1.0f);  // 'a'
  EXPECT_EQ(img.at(0, 0, 1), 0.0f);  // space
  EXPECT_EQ(img.at(0, 0, 2), 1.0f);  // 'b'
}

TEST(ScriptImage, SimpleTransformIsLosslessPerCharacter) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 4;
  opts.transform = core::Transform::kSimple;
  const core::ScriptImageMapper mapper(opts);
  const auto img = mapper.map_2d("ab\n");
  const float a = img.at(0, 0, 0), b = img.at(0, 0, 1);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, 97.0f / 127.0f, 1e-6f);
  EXPECT_GE(a, 0.0f);
  EXPECT_LE(b, 1.0f);
}

TEST(ScriptImage, OneHotTransformSetsExactlyOneChannel) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 2;
  opts.transform = core::Transform::kOneHot;
  const core::ScriptImageMapper mapper(opts);
  EXPECT_EQ(mapper.channels(), 128u);
  const auto img = mapper.map_2d("A\n");
  float total = 0.0f;
  for (std::size_t c = 0; c < 128; ++c) total += img.at(c, 0, 0);
  EXPECT_FLOAT_EQ(total, 1.0f);
  EXPECT_FLOAT_EQ(img.at(65, 0, 0), 1.0f);
}

TEST(ScriptImage, Word2VecTransformUsesEmbedding) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 2;
  opts.transform = core::Transform::kWord2Vec;
  const core::ScriptImageMapper mapper(opts, tiny_embedding(4));
  EXPECT_EQ(mapper.channels(), 4u);
  const auto img = mapper.map_2d("x");
  const auto embedding = tiny_embedding(4);  // vector_of() returns a span into this
  const auto expected = embedding.vector_of('x');
  for (std::size_t d = 0; d < 4; ++d)
    EXPECT_FLOAT_EQ(img.at(d, 0, 0), expected[d]);
}

TEST(ScriptImage, Word2VecWithoutEmbeddingThrows) {
  core::ScriptImageOptions opts;
  opts.transform = core::Transform::kWord2Vec;
  EXPECT_THROW(core::ScriptImageMapper{opts}, std::invalid_argument);
}

TEST(ScriptImage, OneDimensionalIsFlattenedTwoDimensional) {
  core::ScriptImageOptions opts;
  opts.rows = 3;
  opts.cols = 4;
  opts.transform = core::Transform::kSimple;
  const core::ScriptImageMapper mapper(opts);
  const auto img2 = mapper.map_2d("ab\ncd\n");
  const auto img1 = mapper.map_1d("ab\ncd\n");
  EXPECT_EQ(img1.shape(), (prionn::tensor::Shape{1, 1, 12}));
  for (std::size_t i = 0; i < img1.size(); ++i) EXPECT_EQ(img1[i], img2[i]);
}

TEST(ScriptImage, BatchMatchesSingle) {
  core::ScriptImageOptions opts;
  opts.rows = opts.cols = 8;
  opts.transform = core::Transform::kSimple;
  const core::ScriptImageMapper mapper(opts);
  const std::vector<std::string> scripts = {"one\n", "two two\n", "#!x\n"};
  const auto batch = mapper.map_batch_2d(scripts);
  EXPECT_EQ(batch.dim(0), 3u);
  for (std::size_t s = 0; s < scripts.size(); ++s) {
    const auto single = mapper.map_2d(scripts[s]);
    for (std::size_t i = 0; i < single.size(); ++i)
      ASSERT_EQ(batch[s * single.size() + i], single[i]);
  }
}

TEST(ScriptImage, TransformNames) {
  EXPECT_EQ(core::transform_name(core::Transform::kBinary), "binary");
  EXPECT_EQ(core::transform_name(core::Transform::kWord2Vec), "word2vec");
}

// ------------------------------------------------------------ model zoo ---

class ModelZooKinds : public ::testing::TestWithParam<core::ModelKind> {};

TEST_P(ModelZooKinds, BuildsAndPropagatesShape) {
  core::ModelConfig cfg;
  cfg.kind = GetParam();
  cfg.channels = 4;
  cfg.rows = cfg.cols = 16;
  cfg.classes = 10;
  cfg.preset = core::ModelPreset::kFast;
  auto net = core::build_model(cfg);
  const prionn::tensor::Shape input =
      cfg.kind == core::ModelKind::kCnn2d
          ? prionn::tensor::Shape{4, 16, 16}
          : prionn::tensor::Shape{4, 1, 256};
  EXPECT_EQ(net.output_shape(input), (prionn::tensor::Shape{10}));
  EXPECT_GT(net.parameter_count(), 100u);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelZooKinds,
                         ::testing::Values(core::ModelKind::kFullyConnected,
                                           core::ModelKind::kCnn1d,
                                           core::ModelKind::kCnn2d));

TEST(ModelZoo, PaperPresetIsLarger) {
  core::ModelConfig fast, paper;
  fast.rows = fast.cols = paper.rows = paper.cols = 64;
  fast.classes = paper.classes = 960;
  fast.preset = core::ModelPreset::kFast;
  paper.preset = core::ModelPreset::kPaper;
  EXPECT_GT(core::build_model(paper).parameter_count(),
            core::build_model(fast).parameter_count());
}

TEST(ModelZoo, PaperCnn2dHasFourConvAndFourDense) {
  core::ModelConfig cfg;
  cfg.preset = core::ModelPreset::kPaper;
  auto net = core::build_model(cfg);
  std::size_t convs = 0, denses = 0;
  for (std::size_t i = 0; i < net.depth(); ++i) {
    if (net.layer(i).kind() == "conv2d") ++convs;
    if (net.layer(i).kind() == "dense") ++denses;
  }
  EXPECT_EQ(convs, 4u);   // "four convolutional layers
  EXPECT_EQ(denses, 4u);  //  and four fully connected layers"
}

TEST(ModelZoo, RejectsBadGeometry) {
  core::ModelConfig cfg;
  cfg.rows = 30;  // not divisible by 16
  EXPECT_THROW(core::build_model(cfg), std::invalid_argument);
}

// ------------------------------------------------------------ predictor ---

namespace {

/// Small predictor configuration that trains in well under a second.
core::PredictorOptions tiny_predictor(core::Transform t =
                                          core::Transform::kSimple) {
  core::PredictorOptions o;
  o.image.rows = o.image.cols = 16;
  o.image.transform = t;
  o.runtime_bins = 64;
  o.io_bins = 16;
  o.epochs = 2;
  o.predict_io = true;
  return o;
}

std::vector<tr::JobRecord> tiny_jobs(std::size_t n) {
  tr::WorkloadGenerator gen(tr::WorkloadOptions::cab(n + n / 8));
  auto jobs = tr::completed_jobs(gen.generate());
  jobs.resize(std::min(jobs.size(), n));
  return jobs;
}

}  // namespace

TEST(Predictor, TrainPredictSmoke) {
  auto jobs = tiny_jobs(40);
  core::PrionnPredictor p(tiny_predictor());
  EXPECT_FALSE(p.trained());
  p.train(jobs);
  EXPECT_TRUE(p.trained());
  const auto pred = p.predict(jobs[0].script);
  EXPECT_GE(pred.runtime_minutes, 1.0);
  EXPECT_LT(pred.runtime_minutes, 64.0);
  EXPECT_GT(pred.bytes_read, 0.0);
  EXPECT_GT(pred.bytes_written, 0.0);
}

TEST(Predictor, PredictBeforeTrainThrows) {
  core::PrionnPredictor p(tiny_predictor());
  EXPECT_THROW(p.predict("#!/bin/bash\n"), std::logic_error);
}

TEST(Predictor, Word2VecRequiresEmbeddingFit) {
  auto jobs = tiny_jobs(20);
  core::PrionnPredictor p(tiny_predictor(core::Transform::kWord2Vec));
  EXPECT_THROW(p.train(jobs), std::logic_error);
  std::vector<std::string> scripts;
  for (const auto& j : jobs) scripts.push_back(j.script);
  p.fit_embedding(scripts);
  p.train(jobs);
  EXPECT_TRUE(p.trained());
}

TEST(Predictor, WarmStartAccumulatesTrainingEvents) {
  auto jobs = tiny_jobs(30);
  core::PrionnPredictor p(tiny_predictor());
  p.train(jobs);
  p.train(jobs);
  EXPECT_EQ(p.training_events(), 2u);
}

TEST(Predictor, BandwidthDerivedFromTotals) {
  core::JobPrediction p;
  p.runtime_minutes = 2.0;
  p.bytes_read = 1200.0;
  p.bytes_written = 240.0;
  EXPECT_DOUBLE_EQ(p.read_bandwidth(), 10.0);
  EXPECT_DOUBLE_EQ(p.write_bandwidth(), 2.0);
}

TEST(Predictor, RuntimeOnlyModeSkipsIoHeads) {
  auto opts = tiny_predictor();
  opts.predict_io = false;
  auto jobs = tiny_jobs(20);
  core::PrionnPredictor p(opts);
  p.train(jobs);
  const auto pred = p.predict(jobs[0].script);
  EXPECT_EQ(pred.bytes_read, 0.0);
  EXPECT_GE(pred.runtime_minutes, 1.0);
}

TEST(Predictor, LearnsRepeatedScripts) {
  // Memorisation check: a few distinct scripts with distinct runtimes,
  // repeated many times, must be predicted accurately after training.
  // One-hot gives the crispest per-character signal for a memorisation
  // check; no dropout since fitting the training set is the whole point.
  auto opts = tiny_predictor(core::Transform::kOneHot);
  opts.epochs = 40;
  opts.predict_io = false;
  opts.runtime_bins = 16;
  opts.dropout = 0.0;
  std::vector<tr::JobRecord> jobs;
  for (int rep = 0; rep < 20; ++rep) {
    for (int v = 0; v < 4; ++v) {
      tr::JobRecord j;
      // The distinguishing text must survive the 16x16 crop, so keep it in
      // the first columns of an early line.
      j.script = "# run v" + std::to_string(v) + "\nsrun -s " +
                 std::to_string(v) + "00\n";
      j.runtime_minutes = 2.0 + 3.0 * v;
      j.bytes_read = j.bytes_written = 1e6;
      jobs.push_back(j);
    }
  }
  core::PrionnPredictor p(opts);
  p.train(jobs);
  std::size_t hits = 0;
  for (int v = 0; v < 4; ++v) {
    const auto pred = p.predict(jobs[static_cast<std::size_t>(v)].script);
    if (std::abs(pred.runtime_minutes - (2.0 + 3.0 * v)) < 0.5) ++hits;
  }
  EXPECT_GE(hits, 3u);
}

TEST(Predictor, ConfidenceIsValidProbabilityAndConsistent) {
  auto jobs = tiny_jobs(30);
  core::PrionnPredictor p(tiny_predictor());
  p.train(jobs);
  const auto c = p.predict_with_confidence(jobs[0].script);
  EXPECT_GT(c.runtime_confidence, 0.0);
  EXPECT_LE(c.runtime_confidence, 1.0);
  EXPECT_GT(c.read_confidence, 0.0);
  EXPECT_LE(c.write_confidence, 1.0);
  // The confident prediction's argmax matches the plain predict path.
  const auto plain = p.predict(jobs[0].script);
  EXPECT_DOUBLE_EQ(c.value.runtime_minutes, plain.runtime_minutes);
  EXPECT_DOUBLE_EQ(c.value.bytes_read, plain.bytes_read);
}

TEST(Predictor, SaveLoadRoundTripPreservesPredictions) {
  auto jobs = tiny_jobs(30);
  core::PrionnPredictor p(tiny_predictor(core::Transform::kWord2Vec));
  std::vector<std::string> scripts;
  for (const auto& j : jobs) scripts.push_back(j.script);
  p.fit_embedding(scripts);
  p.train(jobs);

  std::stringstream ss;
  p.save(ss);
  auto loaded = core::PrionnPredictor::load(ss);
  EXPECT_TRUE(loaded.trained());
  EXPECT_EQ(loaded.training_events(), p.training_events());
  for (std::size_t i = 0; i < 5; ++i) {
    const auto a = p.predict(jobs[i].script);
    const auto b = loaded.predict(jobs[i].script);
    EXPECT_DOUBLE_EQ(a.runtime_minutes, b.runtime_minutes);
    EXPECT_DOUBLE_EQ(a.bytes_read, b.bytes_read);
    EXPECT_DOUBLE_EQ(a.bytes_written, b.bytes_written);
  }
  // The loaded predictor can keep training (warm start after restart).
  loaded.train(jobs);
  EXPECT_EQ(loaded.training_events(), p.training_events() + 1);
}

TEST(Predictor, LoadRejectsGarbage) {
  std::stringstream ss("definitely not a predictor checkpoint");
  EXPECT_THROW(core::PrionnPredictor::load(ss), std::runtime_error);
}

// --------------------------------------------------------------- online ---

TEST(Online, ProtocolProducesPredictionsAfterWarmup) {
  auto jobs = tiny_jobs(260);
  core::OnlineOptions opts;
  opts.predictor = tiny_predictor();
  opts.predictor.predict_io = false;
  opts.retrain_interval = 50;
  opts.train_window = 100;
  opts.min_initial_completions = 30;
  core::OnlineTrainer trainer(opts);
  const auto result = trainer.run(jobs);
  EXPECT_EQ(result.predictions.size(), jobs.size());
  EXPECT_GE(result.training_events, 2u);
  const auto idx = result.predicted_indices();
  EXPECT_GT(idx.size(), jobs.size() / 3);
  EXPECT_FALSE(result.predictions[0].has_value());  // cold start
  for (const std::size_t i : idx) {
    EXPECT_GE(result.predictions[i]->runtime_minutes, 1.0);
  }
  EXPECT_GT(result.train_seconds, 0.0);
}

TEST(Online, ColdRetrainAblationRuns) {
  auto jobs = tiny_jobs(200);
  core::OnlineOptions opts;
  opts.predictor = tiny_predictor(core::Transform::kWord2Vec);
  opts.predictor.predict_io = false;
  opts.retrain_interval = 40;
  opts.train_window = 80;
  opts.min_initial_completions = 30;
  opts.reinitialize_on_retrain = true;
  core::OnlineTrainer trainer(opts);
  const auto result = trainer.run(jobs);
  EXPECT_GE(result.training_events, 2u);
  // Cold restarts reset the training-event counter per predictor, so
  // after the run the live predictor has seen exactly one train() call.
  EXPECT_EQ(trainer.predictor().training_events(), 1u);
  EXPECT_FALSE(result.predicted_indices().empty());
}

TEST(Online, RejectsBadOptions) {
  core::OnlineOptions opts;
  opts.predictor = tiny_predictor();
  opts.retrain_interval = 0;
  EXPECT_THROW(core::OnlineTrainer{opts}, std::invalid_argument);
}

// ------------------------------------------------------ protocol cursor ---

namespace {

// Ten jobs submitted every 10 s. Job 2 ends exactly at job 4's submission
// (the <= boundary), jobs 5 and 6 end together, and 4, 8, 9 never end
// within the trace. Completions in order: 1, 0, 3, 2 (all by t=40), then
// 5 and 6 (by t=70), then 7 (by t=80).
std::vector<tr::JobRecord> hand_trace() {
  const double ends[] = {25, 15, 40, 35, 1000, 65, 65, 75, 1000, 1000};
  std::vector<tr::JobRecord> jobs(10);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].submit_time = 10.0 * static_cast<double>(i);
    jobs[i].end_time = ends[i];
  }
  return jobs;
}

// Steps a cursor over the trace and returns the submissions at which a
// retrain ran; attempts listed in `rejected_at` leave the model untrained.
std::vector<std::size_t> retrain_points(
    const core::OnlineProtocolOptions& protocol,
    const std::vector<std::size_t>& rejected_at = {}) {
  const auto jobs = hand_trace();
  core::ProtocolCursor cursor(jobs, protocol);
  std::vector<std::size_t> points;
  bool trained = false;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    cursor.arrive(i);
    if (cursor.due(trained, /*rejected=*/!points.empty() && !trained)) {
      points.push_back(i);
      trained = std::find(rejected_at.begin(), rejected_at.end(), i) ==
                rejected_at.end();
      cursor.retrained();
    }
    cursor.submit(i);
  }
  return points;
}

std::vector<std::size_t> as_vector(std::span<const std::size_t> s) {
  return {s.begin(), s.end()};
}

}  // namespace

TEST(ProtocolCursor, HandTraceCompletionOrder) {
  const auto jobs = hand_trace();
  core::ProtocolCursor cursor(jobs, core::OnlineProtocolOptions{});
  const std::vector<std::vector<std::size_t>> expected = {
      {}, {}, {1}, {0}, {3, 2}, {}, {}, {5, 6}, {7}, {}};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto arrived = as_vector(cursor.arrive(i));
    // 5 and 6 tie on end_time; only the set is fixed by the trace.
    if (i == 7) std::sort(arrived.begin(), arrived.end());
    EXPECT_EQ(arrived, expected[i]) << "arrive(" << i << ")";
    EXPECT_TRUE(cursor.arrive(i).empty()) << "second arrive(" << i << ")";
    if (i == 4) {
      EXPECT_EQ(as_vector(cursor.recent(10)),
                (std::vector<std::size_t>{1, 0, 3, 2}));
      EXPECT_EQ(as_vector(cursor.recent(2)),
                (std::vector<std::size_t>{3, 2}));
    }
    cursor.submit(i);
  }
}

TEST(ProtocolCursor, HandTraceCadence) {
  core::OnlineProtocolOptions protocol;
  protocol.retrain_interval = 3;

  // No first event before the first completion (job 1, seen at i = 2),
  // even when no minimum is asked for; then every 3 submissions.
  protocol.min_initial_completions = 0;
  EXPECT_EQ(retrain_points(protocol), (std::vector<std::size_t>{2, 5, 8}));

  // Four completions first exist at i = 4, mid-trace.
  protocol.min_initial_completions = 4;
  EXPECT_EQ(retrain_points(protocol), (std::vector<std::size_t>{4, 7}));

  // Two completions exist at i = 3. That first attempt is rejected, so
  // the retry waits a full interval (i = 6, not i = 4).
  protocol.min_initial_completions = 2;
  EXPECT_EQ(retrain_points(protocol, /*rejected_at=*/{3}),
            (std::vector<std::size_t>{3, 6, 9}));

  // Interval 100 on a 10-job trace: one event only.
  protocol.retrain_interval = 100;
  EXPECT_EQ(retrain_points(protocol), (std::vector<std::size_t>{3}));
}

TEST(ProtocolCursor, DueRule) {
  core::OnlineProtocolOptions p;
  p.retrain_interval = 3;
  p.min_initial_completions = 0;
  EXPECT_FALSE(p.due(0, 99, /*trained=*/true, /*rejected=*/false));
  EXPECT_FALSE(p.due(0, 99, false, false));
  EXPECT_TRUE(p.due(1, 0, false, false));
  EXPECT_FALSE(p.due(1, 2, false, /*rejected=*/true));
  EXPECT_TRUE(p.due(1, 3, false, true));
  EXPECT_FALSE(p.due(50, 2, true, false));
  EXPECT_TRUE(p.due(50, 3, true, false));
}

// ------------------------------------------------------------- pipeline ---

namespace {

std::vector<core::JobPrediction> perfect_predictions(
    const std::vector<tr::JobRecord>& jobs) {
  std::vector<core::JobPrediction> out(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[i].runtime_minutes = jobs[i].runtime_minutes;
    out[i].bytes_read = jobs[i].bytes_read;
    out[i].bytes_written = jobs[i].bytes_written;
  }
  return out;
}

}  // namespace

TEST(Pipeline, PerfectRuntimePredictionsBeatUserEstimates) {
  const auto jobs = tiny_jobs(150);
  const auto preds = perfect_predictions(jobs);
  core::Phase2Options opts;
  opts.cluster.total_nodes = 128;
  const auto eval = core::evaluate_turnaround(jobs, preds, opts);
  ASSERT_EQ(eval.simulated.size(), jobs.size());

  std::vector<double> acc_user, acc_prionn;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (eval.simulated[i] <= 0.0) continue;
    acc_user.push_back(prionn::util::relative_accuracy(
        eval.simulated[i], eval.predicted_user[i]));
    acc_prionn.push_back(prionn::util::relative_accuracy(
        eval.simulated[i], eval.predicted_prionn[i]));
  }
  // Even perfect runtimes cannot anticipate future arrivals, so the
  // prediction is not exact under contention — but it must clearly beat
  // user-requested runtimes (Fig. 11b's ordering) and be strong overall.
  EXPECT_GT(prionn::util::mean(acc_prionn), 0.6);
  EXPECT_GT(prionn::util::mean(acc_prionn), prionn::util::mean(acc_user));
}

TEST(Pipeline, ActualIntervalsMatchSchedule) {
  const auto jobs = tiny_jobs(60);
  const auto preds = perfect_predictions(jobs);
  core::Phase2Options opts;
  opts.cluster.total_nodes = 128;
  const auto eval = core::evaluate_turnaround(jobs, preds, opts);
  const auto intervals = core::actual_io_intervals(jobs, eval.schedule);
  EXPECT_EQ(intervals.size(), eval.schedule.size());
  for (const auto& iv : intervals) {
    EXPECT_GT(iv.end_time, iv.start_time);
    EXPECT_GE(iv.bandwidth, 0.0);
  }
}

TEST(Pipeline, IdenticalTimelinesScorePerfectly) {
  const auto jobs = tiny_jobs(100);
  const auto preds = perfect_predictions(jobs);
  core::Phase2Options opts;
  opts.cluster.total_nodes = 128;
  const auto eval = core::evaluate_turnaround(jobs, preds, opts);
  const auto actual = core::actual_io_intervals(jobs, eval.schedule);
  const auto predicted =
      core::predicted_io_intervals_perfect(jobs, eval.schedule, preds);
  const auto io = core::evaluate_system_io(actual, predicted, opts);
  // Perfect IO predictions on the true schedule: accuracy 1 everywhere,
  // every burst matched.
  EXPECT_GT(prionn::util::mean(io.accuracies), 0.999);
  for (const auto& w : io.windows) {
    EXPECT_DOUBLE_EQ(w.score.sensitivity(),
                     w.score.true_positives == 0 &&
                             w.score.false_negatives == 0
                         ? 0.0
                         : 1.0);
    EXPECT_EQ(w.score.false_positives, 0u);
  }
}

TEST(Pipeline, PredictedIntervalsUseTurnaround) {
  tr::JobRecord j;
  j.submit_time = 100.0;
  j.runtime_minutes = 2.0;
  j.bytes_read = 6000.0;
  j.bytes_written = 6000.0;
  core::JobPrediction p;
  p.runtime_minutes = 2.0;
  p.bytes_read = 12000.0;
  p.bytes_written = 0.0;
  const auto intervals = core::predicted_io_intervals_predicted(
      {j}, {300.0}, {p});
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_DOUBLE_EQ(intervals[0].end_time, 400.0);     // submit + turnaround
  EXPECT_DOUBLE_EQ(intervals[0].start_time, 280.0);   // end - 2 min
  EXPECT_DOUBLE_EQ(intervals[0].bandwidth, 100.0);    // 12000 B / 120 s
}

TEST(Pipeline, NegativeTurnaroundSkipsJob) {
  tr::JobRecord j;
  core::JobPrediction p;
  p.runtime_minutes = 1.0;
  const auto intervals =
      core::predicted_io_intervals_predicted({j}, {-1.0}, {p});
  EXPECT_TRUE(intervals.empty());
}

TEST(Pipeline, SizeMismatchesThrow) {
  const auto jobs = tiny_jobs(10);
  EXPECT_THROW(core::evaluate_turnaround(jobs, {}), std::invalid_argument);
  EXPECT_THROW(core::predicted_io_intervals_predicted(jobs, {}, {}),
               std::invalid_argument);
}
