// Tests for the concurrent serving subsystem (core/serve/): the encoding
// cache, the micro-batched PredictionService with background retrain and
// atomic model swap, and the ServingSession replay modes. The
// concurrency-heavy cases here are the payload of the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/online.hpp"
#include "core/serve/encoding_cache.hpp"
#include "core/serve/prediction_service.hpp"
#include "core/serve/serving_session.hpp"
#include "tensor/tensor.hpp"
#include "trace/workload.hpp"

namespace core = prionn::core;
namespace serve = prionn::core::serve;
namespace tr = prionn::trace;

namespace {

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

serve::ServiceOptions tiny_service(core::Transform t =
                                       core::Transform::kSimple) {
  serve::ServiceOptions o;
  o.predictor = tiny_predictor(t);
  o.protocol.retrain_interval = 20;
  o.protocol.train_window = 60;
  o.protocol.embedding_corpus = 60;
  o.protocol.min_initial_completions = 15;
  return o;
}

}  // namespace

// -------------------------------------------------------- encoding cache ---

TEST(EncodingCache, HitRefreshesAndEvictsLru) {
  serve::EncodingCache cache(2);
  cache.insert("a", prionn::tensor::Tensor({1}, 1.0f));
  cache.insert("b", prionn::tensor::Tensor({1}, 2.0f));
  ASSERT_NE(cache.find("a"), nullptr);  // refresh: "b" is now LRU
  cache.insert("c", prionn::tensor::Tensor({1}, 3.0f));
  EXPECT_EQ(cache.find("b"), nullptr);  // evicted
  ASSERT_NE(cache.find("a"), nullptr);
  EXPECT_FLOAT_EQ(cache.find("a")->data()[0], 1.0f);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_GE(cache.hits(), 3u);
  EXPECT_GE(cache.misses(), 1u);
}

TEST(EncodingCache, ZeroCapacityDisables) {
  serve::EncodingCache cache(0);
  cache.insert("a", prionn::tensor::Tensor({1}, 1.0f));
  EXPECT_EQ(cache.find("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EncodingCache, ClearDropsEverything) {
  serve::EncodingCache cache(8);
  cache.insert("a", prionn::tensor::Tensor({1}, 1.0f));
  cache.insert("b", prionn::tensor::Tensor({1}, 2.0f));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find("a"), nullptr);
}

// ------------------------------------------------------- options validate ---

TEST(ServeOptions, ValidateRejectsDegenerateParameters) {
  serve::ServiceOptions o = tiny_service();
  o.batching.max_batch = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = tiny_service();
  o.batching.queue_capacity = 0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = tiny_service();
  o.protocol.retrain_interval = 0;
  EXPECT_THROW(serve::PredictionService{o}, std::invalid_argument);
}

TEST(OnlineProtocolOptions, SharedValidationGuardsEveryConsumer) {
  core::OnlineOptions o;
  o.train_window = 0;
  EXPECT_THROW(core::OnlineTrainer{o}, std::invalid_argument);
  o = {};
  o.embedding_corpus = 0;
  EXPECT_THROW(core::OnlineTrainer{o}, std::invalid_argument);
}

// ------------------------------------------------- deterministic replay ----

// The acceptance bar for the whole subsystem: replaying a trace through
// the micro-batched service (deterministic mode) must be prediction-for-
// prediction identical to the sequential OnlineTrainer at a fixed seed.
// Batching, the encoding cache, and the shadow-train/swap cycle may only
// change the wall clock, never the arithmetic.
TEST(ServingSession, DeterministicReplayEqualsOnlineTrainer) {
  const auto jobs = tiny_jobs(90);

  core::OnlineOptions online;
  static_cast<core::OnlineProtocolOptions&>(online) =
      tiny_service().protocol;
  online.predictor = tiny_predictor();
  auto sequential = core::OnlineTrainer(online).run(jobs);

  serve::SessionOptions session_options;
  session_options.service = tiny_service();
  session_options.mode = serve::ReplayMode::kDeterministic;
  serve::ServingSession session(session_options);
  const auto served = session.replay(jobs);

  EXPECT_GE(sequential.training_events, 2u);
  EXPECT_EQ(served.training_events, sequential.training_events);
  const auto nn = served.nn_predictions();
  ASSERT_EQ(nn.size(), sequential.predictions.size());
  for (std::size_t i = 0; i < nn.size(); ++i) {
    ASSERT_EQ(nn[i].has_value(), sequential.predictions[i].has_value())
        << "job " << i;
    if (!nn[i]) continue;
    // Bit-exact, not approximately equal.
    EXPECT_EQ(nn[i]->runtime_minutes,
              sequential.predictions[i]->runtime_minutes)
        << "job " << i;
    EXPECT_EQ(nn[i]->bytes_read, sequential.predictions[i]->bytes_read)
        << "job " << i;
    EXPECT_EQ(nn[i]->bytes_written,
              sequential.predictions[i]->bytes_written)
        << "job " << i;
  }
  // The workload's 65% script-repeat rate must show up as cache hits.
  EXPECT_GT(served.stats.cache_hits, 0u);
  EXPECT_GT(served.stats.batches, 0u);
  EXPECT_EQ(served.stats.served, jobs.size());
}

// Word2vec exercises the embedding fit inside the shadow retrain and the
// epoch-based cache invalidation that follows the swap.
TEST(ServingSession, DeterministicReplayEqualsOnlineTrainerWord2Vec) {
  const auto jobs = tiny_jobs(60);

  core::OnlineOptions online;
  static_cast<core::OnlineProtocolOptions&>(online) =
      tiny_service().protocol;
  online.predictor = tiny_predictor(core::Transform::kWord2Vec);
  auto sequential = core::OnlineTrainer(online).run(jobs);

  serve::SessionOptions session_options;
  session_options.service = tiny_service(core::Transform::kWord2Vec);
  session_options.mode = serve::ReplayMode::kDeterministic;
  serve::ServingSession session(session_options);
  const auto served = session.replay(jobs);

  EXPECT_GE(sequential.training_events, 1u);
  EXPECT_EQ(served.training_events, sequential.training_events);
  const auto nn = served.nn_predictions();
  ASSERT_EQ(nn.size(), sequential.predictions.size());
  for (std::size_t i = 0; i < nn.size(); ++i) {
    ASSERT_EQ(nn[i].has_value(), sequential.predictions[i].has_value());
    if (!nn[i]) continue;
    EXPECT_EQ(nn[i]->runtime_minutes,
              sequential.predictions[i]->runtime_minutes);
  }
}

// Cache on vs cache off must be indistinguishable in the answers — across
// model swaps too (an accepted retrain must not serve stale encodings).
TEST(ServingSession, EncodingCacheDoesNotChangePredictions) {
  const auto jobs = tiny_jobs(70);

  serve::SessionOptions with_cache;
  with_cache.service = tiny_service();
  serve::ServingSession cached(with_cache);
  const auto a = cached.replay(jobs);

  serve::SessionOptions without_cache;
  without_cache.service = tiny_service();
  without_cache.service.encoding_cache_capacity = 0;
  serve::ServingSession uncached(without_cache);
  const auto b = uncached.replay(jobs);

  EXPECT_GT(a.stats.swaps, 1u);       // the cache survived >= 1 swap
  EXPECT_GT(a.stats.cache_hits, 0u);  // and was actually used
  EXPECT_EQ(b.stats.cache_hits, 0u);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    ASSERT_TRUE(a.predictions[i] && b.predictions[i]) << "job " << i;
    EXPECT_EQ(a.predictions[i]->source, b.predictions[i]->source);
    EXPECT_EQ(a.predictions[i]->value.runtime_minutes,
              b.predictions[i]->value.runtime_minutes);
    EXPECT_EQ(a.predictions[i]->value.bytes_read,
              b.predictions[i]->value.bytes_read);
  }
}

// ------------------------------------------------------- concurrency ------

// The TSan payload: submissions from several threads race completions and
// background retrains (shadow train + model swap). Every future must
// resolve, and the books must balance.
TEST(PredictionService, ConcurrentSubmitSurvivesBackgroundRetrain) {
  const auto jobs = tiny_jobs(80);
  serve::ServiceOptions options = tiny_service();
  options.protocol.min_initial_completions = 10;
  options.protocol.retrain_interval = 10;
  options.background_retrain = true;
  serve::PredictionService service(options);

  // Seed the window so the first submissions already arm a retrain.
  for (std::size_t i = 0; i < 20; ++i) service.complete(jobs[i]);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 15;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t k = 0; k < kPerThread; ++k) {
        const auto& job = jobs[(t * kPerThread + k) % jobs.size()];
        auto prediction = service.submit(job).get();
        EXPECT_GE(prediction.value.runtime_minutes, 1.0);
        // Interleave more completions to keep the trainer racing.
        service.complete(jobs[(k * 7 + t) % jobs.size()]);
      }
    });
  }
  for (auto& w : workers) w.join();
  service.flush();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.served, stats.submitted);
  EXPECT_EQ(stats.source_counts[0] + stats.source_counts[1] +
                stats.source_counts[2],
            stats.served);
  EXPECT_GE(service.training_events(), 1u);

  // After flush() the armed retrain has been published: a fresh
  // submission must now be served by the swapped-in neural net.
  const auto prediction = service.predict_now(jobs[0]);
  EXPECT_EQ(prediction.source, core::PredictionSource::kNeuralNet);
  EXPECT_GT(prediction.confidence, 0.0);
}

TEST(PredictionService, BackpressureShedsToFallbackChain) {
  serve::ServiceOptions options = tiny_service();
  options.batching.queue_capacity = 2;
  options.batching.max_batch = 64;
  options.batching.max_delay_us = 200000;  // park the batcher coalescing
  serve::PredictionService service(options);

  const auto jobs = tiny_jobs(16);
  std::vector<std::future<core::ProvenancedPrediction>> futures;
  futures.reserve(jobs.size());
  for (const auto& job : jobs) futures.push_back(service.submit(job));
  for (auto& f : futures) {
    const auto prediction = f.get();
    // Untrained service: everything resolves via the fallback chain.
    EXPECT_NE(prediction.source, core::PredictionSource::kNeuralNet);
    EXPECT_GE(prediction.value.runtime_minutes, 1.0);
  }
  const auto stats = service.stats();
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.served, stats.submitted);
  EXPECT_LE(stats.max_queue_depth, 2u);
}

TEST(PredictionService, GuardRejectionKeepsLastGoodModelAndBenches) {
  serve::ServiceOptions options = tiny_service();
  options.background_retrain = false;
  options.min_holdback_accuracy = 1.1;  // unreachable: every retrain fails
  options.holdback_size = 4;
  options.max_consecutive_rejections = 2;
  serve::PredictionService service(options);

  const auto jobs = tiny_jobs(30);
  for (const auto& job : jobs) service.complete(job);
  EXPECT_FALSE(service.retrain_now());
  EXPECT_FALSE(service.retrain_now());

  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_retrains, 2u);
  EXPECT_EQ(stats.swaps, 0u);
  EXPECT_TRUE(stats.nn_benched);
  EXPECT_EQ(service.training_events(), 0u);

  // Benched != broken: submissions still get answers.
  const auto prediction = service.predict_now(jobs[0]);
  EXPECT_NE(prediction.source, core::PredictionSource::kNeuralNet);
  EXPECT_GE(prediction.value.runtime_minutes, 1.0);
}

TEST(PredictionService, RetrainNowRequiresManualMode) {
  serve::ServiceOptions options = tiny_service();
  options.background_retrain = true;
  serve::PredictionService service(options);
  EXPECT_THROW(service.retrain_now(), std::logic_error);
}

TEST(ServingSession, ConcurrentReplayServesEveryJob) {
  const auto jobs = tiny_jobs(60);
  serve::SessionOptions options;
  options.service = tiny_service();
  options.service.protocol.min_initial_completions = 10;
  options.service.protocol.retrain_interval = 15;
  options.mode = serve::ReplayMode::kConcurrent;
  serve::ServingSession session(options);
  const auto result = session.replay(jobs);

  ASSERT_EQ(result.predictions.size(), jobs.size());
  for (const auto& p : result.predictions) {
    ASSERT_TRUE(p.has_value());
    EXPECT_GE(p->value.runtime_minutes, 1.0);
  }
  EXPECT_EQ(result.stats.served, result.stats.submitted);
}

TEST(ServingSession, CheckpointingNeedsDeterministicMode) {
  serve::SessionOptions options;
  options.service = tiny_service();
  options.mode = serve::ReplayMode::kConcurrent;
  options.checkpoint_path = "unused.ckpt";
  EXPECT_THROW(serve::ServingSession{options}, std::invalid_argument);
}

// ----------------------------------------------- satellite: timings -------

TEST(OnlineResult, MonotonicTimingsAreConsistent) {
  const auto jobs = tiny_jobs(40);
  core::OnlineOptions options;
  options.predictor = tiny_predictor();
  options.min_initial_completions = 10;
  options.retrain_interval = 15;
  const auto result = core::OnlineTrainer(options).run(jobs);
  ASSERT_GE(result.training_events, 1u);
  EXPECT_GT(result.train_ns, 0u);
  EXPECT_GT(result.predict_ns, 0u);
  EXPECT_DOUBLE_EQ(result.train_seconds,
                   static_cast<double>(result.train_ns) / 1e9);
  EXPECT_DOUBLE_EQ(result.predict_seconds,
                   static_cast<double>(result.predict_ns) / 1e9);
}

// ------------------------------------- satellite: one batch predict path ---

TEST(Predictor, BatchedPredictionEqualsSingleItemWrappers) {
  const auto jobs = tiny_jobs(40);
  core::PrionnPredictor predictor{tiny_predictor()};
  predictor.train(jobs);

  std::vector<std::string> scripts;
  for (std::size_t i = 0; i < 10; ++i) scripts.push_back(jobs[i].script);
  const auto batched = predictor.predict_batch(scripts);
  ASSERT_EQ(batched.size(), scripts.size());
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    const auto single = predictor.predict_with_confidence(scripts[i]);
    EXPECT_EQ(batched[i].value.runtime_minutes,
              single.value.runtime_minutes);
    EXPECT_EQ(batched[i].value.bytes_read, single.value.bytes_read);
    EXPECT_EQ(batched[i].value.bytes_written, single.value.bytes_written);
    EXPECT_EQ(batched[i].runtime_confidence, single.runtime_confidence);
    EXPECT_EQ(batched[i].read_confidence, single.read_confidence);
    EXPECT_EQ(batched[i].write_confidence, single.write_confidence);
    EXPECT_GT(batched[i].runtime_confidence, 0.0);
    EXPECT_LE(batched[i].runtime_confidence, 1.0);
    const auto value_only = predictor.predict(scripts[i]);
    EXPECT_EQ(value_only.runtime_minutes, batched[i].value.runtime_minutes);
  }
}
