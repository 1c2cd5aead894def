#include "core/serve/prediction_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/loss.hpp"
#include "obs/obs.hpp"
#include "tensor/tensor.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace prionn::core::serve {

void ServiceOptions::validate() const {
  protocol.validate("PredictionService");
  if (batching.max_batch == 0)
    throw std::invalid_argument(
        "PredictionService: batching.max_batch must be > 0");
  if (batching.queue_capacity == 0)
    throw std::invalid_argument(
        "PredictionService: batching.queue_capacity must be > 0");
}

PredictionService::PredictionService(ServiceOptions options)
    : options_(std::move(options)),
      fallback_(options_.fallback),
      cache_(options_.encoding_cache_capacity) {
  options_.validate();
  {
    util::ScopedLock ml(model_mutex_);
    live_ = std::make_unique<PrionnPredictor>(options_.predictor);
  }
  {
    util::ScopedLock wl(window_mutex_);
    embedding_ready_ =
        options_.predictor.image.transform != Transform::kWord2Vec;
  }
  batcher_ = std::thread([this] { batcher_loop(); });
  if (options_.background_retrain)
    trainer_ = std::thread([this] { trainer_loop(); });
}

PredictionService::~PredictionService() {
  // Stop order matters: the batcher drains every accepted request before
  // exiting (no promise is ever abandoned), then the trainer is released.
  {
    util::ScopedLock lock(queue_mutex_);
    stopping_ = true;
    queue_cv_.notify_all();
  }
  if (batcher_.joinable()) batcher_.join();
  {
    util::ScopedLock wl(window_mutex_);
    trainer_stop_ = true;
    trainer_cv_.notify_all();
  }
  if (trainer_.joinable()) trainer_.join();
}

std::future<ProvenancedPrediction> PredictionService::submit(
    const trace::JobRecord& job) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  PRIONN_OBS_INC("prionn_serve_submissions_total",
                 "submissions accepted by the serving front-end");

  Request request;
  request.job = job;
  request.enqueue_ns = util::Timer::now_ns();
  std::future<ProvenancedPrediction> future = request.promise.get_future();

  bool shed_request = false;
  {
    util::ScopedLock lock(queue_mutex_);
    if (stopping_ || pending_.size() >= options_.batching.queue_capacity) {
      shed_request = true;
    } else {
      pending_.push_back(std::move(request));
      ++outstanding_;
      max_queue_depth_ =
          std::max<std::uint64_t>(max_queue_depth_, pending_.size());
      PRIONN_OBS_GAUGE_SET("prionn_serve_queue_depth",
                           "pending submissions in the serving queue",
                           pending_.size());
      queue_cv_.notify_one();
    }
  }
  if (shed_request) {
    // Backpressure: answer inline from the fallback chain, skipping the
    // NN leg — waiting for the busy model is exactly what shedding
    // avoids. Quality degrades (RF or the requested runtime); latency
    // does not.
    shed_.fetch_add(1, std::memory_order_relaxed);
    PRIONN_OBS_INC("prionn_serve_shed_total",
                   "submissions shed to the fallback chain (queue full)");
    ProvenancedPrediction prediction;
    {
      util::ScopedLock fl(fallback_mutex_);
      prediction = fallback_.predict(nullptr, request.job);
    }
    fulfill(request, prediction);
  }

  // §2.3 cadence: every submission counts, shed or not.
  {
    util::ScopedLock wl(window_mutex_);
    ++submissions_since_train_;
    if (options_.background_retrain && !retrain_requested_ &&
        !nn_benched_.load(std::memory_order_relaxed) && retrain_due()) {
      retrain_requested_ = true;
      trainer_cv_.notify_one();
    }
  }
  return future;
}

ProvenancedPrediction PredictionService::predict_now(
    const trace::JobRecord& job) {
  return submit(job).get();
}

void PredictionService::complete(const trace::JobRecord& job) {
  const std::size_t bound = std::max(options_.protocol.train_window,
                                     options_.protocol.embedding_corpus);
  util::ScopedLock wl(window_mutex_);
  window_.push_back(job);
  while (window_.size() > bound) window_.pop_front();
  ++total_completions_;
  PRIONN_OBS_GAUGE_SET("prionn_serve_window_size",
                       "completions retained for retraining",
                       window_.size());
}

void PredictionService::flush() {
  {
    util::ScopedLock lock(queue_mutex_);
    drain_fast_ = true;  // close the current batch without waiting out
                         // its delay budget
    queue_cv_.notify_all();
    while (outstanding_ > 0) idle_cv_.wait(queue_mutex_);
    drain_fast_ = false;
  }
  if (options_.background_retrain) {
    util::ScopedLock wl(window_mutex_);
    while (retrain_requested_ || trainer_busy_)
      trainer_done_cv_.wait(window_mutex_);
  }
}

bool PredictionService::retrain_now(std::uint64_t job_index,
                                    std::uint64_t checkpoint_generation) {
  if (options_.background_retrain)
    throw std::logic_error(
        "PredictionService::retrain_now: the background trainer owns "
        "retraining for this service");
  return run_retrain(/*claimed=*/false, job_index, checkpoint_generation);
}

void PredictionService::restore(PrionnPredictor predictor) {
  std::vector<trace::JobRecord> recent;
  {
    util::ScopedLock wl(window_mutex_);
    trained_ = true;
    embedding_ready_ = true;
    const std::size_t window =
        std::min(options_.protocol.train_window, window_.size());
    recent.assign(window_.end() - static_cast<std::ptrdiff_t>(window),
                  window_.end());
  }
  {
    util::ScopedLock ml(model_mutex_);
    live_ = std::make_unique<PrionnPredictor>(std::move(predictor));
  }
  cache_epoch_.fetch_add(1, std::memory_order_release);
  // The baseline is not checkpointed: it refits from the window the
  // checkpointed training event used, reproducing its answers.
  util::ScopedLock fl(fallback_mutex_);
  fallback_.fit_baseline(recent);
}

void PredictionService::write_checkpoint(
    const std::string& path, const OnlineCheckpointState& state) const {
  util::ScopedLock ml(model_mutex_);
  write_checkpoint_file(path, *live_, state);
}

std::size_t PredictionService::training_events() const {
  util::ScopedLock wl(window_mutex_);
  return training_events_;
}

bool PredictionService::trained() const {
  util::ScopedLock wl(window_mutex_);
  return trained_;
}

ServiceStats PredictionService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_jobs = batched_jobs_.load(std::memory_order_relaxed);
  s.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  s.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  s.swaps = swaps_.load(std::memory_order_relaxed);
  s.nn_benched = nn_benched_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < s.source_counts.size(); ++i)
    s.source_counts[i] = source_counts_[i].load(std::memory_order_relaxed);
  {
    util::ScopedLock lock(queue_mutex_);
    s.max_queue_depth = max_queue_depth_;
  }
  {
    util::ScopedLock wl(window_mutex_);
    s.rejected_retrains = rejected_retrains_;
  }
  return s;
}

bool PredictionService::retrain_due() const {
  return options_.protocol.due(total_completions_, submissions_since_train_,
                               trained_, rejected_retrains_ > 0);
}

void PredictionService::batcher_loop() {
  // Inference runs inline on this thread: it neither takes nor waits for
  // a pool worker, which the shadow trainer's heads keep busy for a whole
  // training event.
  const util::ThreadPool::LaneWidth inline_lanes(1);
  for (;;) {
    std::vector<Request> batch;
    {
      util::ScopedLock lock(queue_mutex_);
      while (pending_.empty() && !stopping_) queue_cv_.wait(queue_mutex_);
      if (pending_.empty()) return;  // stopping, and fully drained

      // Coalesce: wait for peers until the batch fills, the oldest
      // request's delay budget runs out, or a flush/shutdown hurries us.
      const std::uint64_t deadline =
          pending_.front().enqueue_ns +
          options_.batching.max_delay_us * 1000;
      while (pending_.size() < options_.batching.max_batch && !stopping_ &&
             !drain_fast_) {
        const std::uint64_t now = util::Timer::now_ns();
        if (now >= deadline) break;
        const bool filled = queue_cv_.wait_for(
            queue_mutex_, std::chrono::nanoseconds(deadline - now),
            [this]() PRIONN_REQUIRES(queue_mutex_) {
              return pending_.size() >= options_.batching.max_batch ||
                     stopping_ || drain_fast_;
            });
        if (!filled) break;  // deadline passed first
      }

      const std::size_t n =
          std::min(options_.batching.max_batch, pending_.size());
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      PRIONN_OBS_GAUGE_SET("prionn_serve_queue_depth",
                           "pending submissions in the serving queue",
                           pending_.size());
    }

    serve_batch(batch);

    {
      util::ScopedLock lock(queue_mutex_);
      outstanding_ -= batch.size();
      if (outstanding_ == 0) idle_cv_.notify_all();
    }
  }
}

void PredictionService::serve_batch(std::vector<Request>& batch) {
  PRIONN_OBS_SPAN("serve.micro_batch");
  PRIONN_OBS_TIME("prionn_serve_batch_latency_ns",
                  "wall time of one micro-batch serve");
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_jobs_.fetch_add(batch.size(), std::memory_order_relaxed);
  PRIONN_OBS_GAUGE_SET("prionn_serve_batch_size",
                       "size of the last served micro-batch", batch.size());

  // One forward pass for the whole batch, under the model lock: forward()
  // mutates layer activation caches, and the mapper must not be swapped
  // out from under us mid-batch. Training never runs under this lock —
  // only the trainer's snapshot encode and pointer swap do, so the wait
  // here is bounded by milliseconds, not a training event.
  std::vector<ConfidentPrediction> nn_out;
  bool use_nn = false;
  if (!nn_benched_.load(std::memory_order_relaxed)) {
    util::ScopedLock ml(model_mutex_);
    if (live_ && live_->trained()) {
      use_nn = true;
      // An embedding (re)fit is the one event that changes the
      // script->image function: drop every cached encoding from before it.
      const std::uint64_t epoch =
          cache_epoch_.load(std::memory_order_acquire);
      if (epoch != cache_epoch_seen_) {
        cache_.clear();
        cache_epoch_seen_ = epoch;
      }
      // Assemble the batch tensor from cached per-script samples,
      // mapping only the misses.
      tensor::Tensor batch_tensor;
      std::size_t sample_size = 0;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::string& script = batch[i].job.script;
        const tensor::Tensor* sample = cache_.find(script);
        tensor::Tensor mapped;
        if (sample == nullptr) {
          mapped = live_->map_sample(script);
          sample = &mapped;
        }
        if (i == 0) {
          tensor::Shape shape;
          shape.reserve(sample->rank() + 1);
          shape.push_back(batch.size());
          for (std::size_t axis = 0; axis < sample->rank(); ++axis)
            shape.push_back(sample->dim(axis));
          batch_tensor = tensor::Tensor(std::move(shape));
          sample_size = sample->size();
        }
        std::memcpy(batch_tensor.data() + i * sample_size, sample->data(),
                    sample_size * sizeof(float));
        if (sample == &mapped) cache_.insert(script, std::move(mapped));
      }
      nn_out = live_->predict_batch_mapped(batch_tensor);
    }
  }
  cache_hits_.store(cache_.hits(), std::memory_order_relaxed);
  cache_misses_.store(cache_.misses(), std::memory_order_relaxed);
  PRIONN_OBS_GAUGE_SET("prionn_serve_cache_entries",
                       "scripts held by the encoding cache", cache_.size());

  // Fulfil outside the model lock: confidence-gated NN answers directly,
  // everything else walks the fallback chain.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ProvenancedPrediction prediction;
    bool from_nn = false;
    if (use_nn) {
      const ConfidentPrediction& c = nn_out[i];
      if (c.runtime_confidence >= options_.fallback.min_confidence &&
          std::isfinite(c.value.runtime_minutes)) {
        prediction.value = c.value;
        prediction.source = PredictionSource::kNeuralNet;
        prediction.confidence = c.runtime_confidence;
        from_nn = true;
        // Keep the provenance counters consistent with the sequential
        // serving path (FallbackPredictor::predict bumps these itself).
        PRIONN_OBS_INC("prionn_predictions_total",
                       "predictions served at submission time");
        PRIONN_OBS_INC("prionn_predictions_nn_total",
                       "predictions served by the neural net");
      }
    }
    if (!from_nn) {
      util::ScopedLock fl(fallback_mutex_);
      prediction = fallback_.predict(nullptr, batch[i].job);
    }
    fulfill(batch[i], prediction);
  }
}

void PredictionService::fulfill(Request& request,
                                const ProvenancedPrediction& prediction) {
  const std::uint64_t latency_ns =
      util::Timer::now_ns() - request.enqueue_ns;
  PRIONN_OBS_OBSERVE_NS("prionn_serve_submit_latency_ns",
                        "submit-to-fulfilment latency", latency_ns);
  served_.fetch_add(1, std::memory_order_relaxed);
  source_counts_[static_cast<std::size_t>(prediction.source)].fetch_add(
      1, std::memory_order_relaxed);
  request.promise.set_value(prediction);
}

void PredictionService::trainer_loop() {
  // Leave one core of the pool for the batcher's inline inference and
  // one for the threads that submit requests and take their answers: the
  // heads keep every lane they get busy for the whole retrain, so any
  // core they share with serving shows up in submit latency.
  const std::size_t pool = util::ThreadPool::global().size();
  const util::ThreadPool::LaneWidth trainer_lanes(pool > 2 ? pool - 2 : 1);
  for (;;) {
    {
      util::ScopedLock wl(window_mutex_);
      while (!retrain_requested_ && !trainer_stop_)
        trainer_cv_.wait(window_mutex_);
      if (!retrain_requested_) return;  // stopping
      // Transfer requested -> busy in one critical section, so flush()
      // never observes the gap between the two as "idle".
      retrain_requested_ = false;
      trainer_busy_ = true;
    }
    // Concurrent mode cannot checkpoint, so no write has happened.
    run_retrain(/*claimed=*/true,
                submitted_.load(std::memory_order_relaxed),
                /*checkpoint_generation=*/0);
  }
}

bool PredictionService::run_retrain(bool claimed, std::uint64_t job_index,
                                    std::uint64_t checkpoint_generation) {
  PRIONN_OBS_SPAN("serve.retrain");
  util::Timer retrain_timer;

  // Claim the trainer slot and snapshot the training window. Submissions
  // arriving while we train count toward the *next* interval.
  std::vector<trace::JobRecord> recent;
  std::vector<std::string> corpus;
  bool fit_embedding = false;
  std::uint64_t attempt = 0;
  {
    util::ScopedLock wl(window_mutex_);
    if (!claimed) {  // serialize concurrent retrain_now() callers
      while (trainer_busy_) trainer_done_cv_.wait(window_mutex_);
      trainer_busy_ = true;
    }
    if (window_.empty()) {  // nothing to learn from yet
      trainer_busy_ = false;
      trainer_done_cv_.notify_all();
      return false;
    }
    submissions_since_train_ = 0;
    attempt = static_cast<std::uint64_t>(training_events_ +
                                         rejected_retrains_);
    const std::size_t window =
        std::min(options_.protocol.train_window, window_.size());
    recent.assign(window_.end() - static_cast<std::ptrdiff_t>(window),
                  window_.end());
    if (!embedding_ready_) {
      fit_embedding = true;
      const std::size_t corpus_size =
          std::min(options_.protocol.embedding_corpus, window_.size());
      corpus.reserve(corpus_size);
      for (auto it = window_.end() - static_cast<std::ptrdiff_t>(corpus_size);
           it != window_.end(); ++it)
        corpus.push_back(it->script);
    }
  }
  retrain_active_.store(true, std::memory_order_relaxed);

  // Snapshot the live model under a brief lock; decode the shadow copy
  // outside it. save/load is bit-exact (weights, Adam moments, dropout
  // RNG), so training the shadow follows the exact trajectory training
  // the live model in place would have.
  std::string snapshot;
  {
    PRIONN_OBS_SPAN("serve.snapshot");
    util::ScopedLock ml(model_mutex_);
    std::ostringstream snap(std::ios::binary);
    live_->save(snap);
    snapshot = std::move(snap).str();
  }
  std::istringstream snap_in(snapshot, std::ios::binary);
  auto shadow = std::make_unique<PrionnPredictor>(
      PrionnPredictor::load(snap_in));
  snapshot.clear();

  // Guards: hold back a validation batch when the accuracy floor is on.
  std::vector<trace::JobRecord> train_set = recent;
  std::vector<trace::JobRecord> holdback;
  if (options_.min_holdback_accuracy > 0.0 &&
      recent.size() > options_.holdback_size) {
    holdback.assign(recent.end() -
                        static_cast<std::ptrdiff_t>(options_.holdback_size),
                    recent.end());
    train_set.assign(recent.begin(),
                     recent.end() - static_cast<std::ptrdiff_t>(
                                        options_.holdback_size));
  }

  obs::RetrainEvent event;
  event.window_id = attempt;
  event.job_index = job_index;
  event.checkpoint_generation = checkpoint_generation;
  event.window_size = recent.size();
  event.holdback_size = holdback.size();

  bool accepted = true;
  try {
    if (fit_embedding) shadow->fit_embedding(corpus);
    {
      PRIONN_OBS_SPAN("serve.shadow_train");
      const auto report = shadow->train(train_set);
      event.loss = {report.runtime_loss, report.read_loss,
                    report.write_loss};
      if (!std::isfinite(report.runtime_loss) ||
          !std::isfinite(report.read_loss) ||
          !std::isfinite(report.write_loss))
        accepted = false;
    }
    if (accepted && !holdback.empty()) {
      PRIONN_OBS_SPAN("serve.holdback_eval");
      std::vector<std::string> holdback_scripts;
      holdback_scripts.reserve(holdback.size());
      for (const auto& h : holdback) holdback_scripts.push_back(h.script);
      const auto predicted = shadow->predict_batch(holdback_scripts);
      std::size_t correct = 0;
      for (std::size_t h = 0; h < holdback.size(); ++h) {
        if (shadow->runtime_bins().label_of(
                predicted[h].value.runtime_minutes) ==
            shadow->runtime_bins().label_of(holdback[h].runtime_minutes))
          ++correct;
      }
      const double accuracy = static_cast<double>(correct) /
                              static_cast<double>(holdback.size());
      event.holdback_accuracy = accuracy;
      accepted = accuracy >= options_.min_holdback_accuracy;
    }
  } catch (const nn::TrainingDiverged&) {
    accepted = false;
  }

  bool benched = false;
  if (accepted) {
    // Refit the fallback baseline on the same window the NN trained on.
    {
      util::ScopedLock fl(fallback_mutex_);
      fallback_.fit_baseline(recent);
    }
    // Publish: a pointer swap under the model lock. Readers observe
    // either the old model or the new one, never a half-trained mix, and
    // block for at most the swap itself.
    std::uint64_t swap_ns = 0;
    {
      const std::uint64_t t0 = util::Timer::now_ns();
      util::ScopedLock ml(model_mutex_);
      live_ = std::move(shadow);
      swap_ns = util::Timer::now_ns() - t0;
    }
    swaps_.fetch_add(1, std::memory_order_relaxed);
    PRIONN_OBS_OBSERVE_NS("prionn_serve_swap_latency_ns",
                          "model publish: pointer swap incl. lock wait",
                          swap_ns);
    PRIONN_OBS_INC("prionn_retrains_total",
                   "training events of the online protocol");
    // The new embedding invalidates cached encodings; the batcher clears
    // the cache when it observes the bumped epoch.
    if (fit_embedding)
      cache_epoch_.fetch_add(1, std::memory_order_release);
  } else {
    // Rollback is free with double buffering: discard the shadow — the
    // live model IS the pre-retrain snapshot and never stopped serving.
    PRIONN_OBS_INC("prionn_retrains_rejected_total",
                   "retrain attempts rejected by the guards");
    PRIONN_OBS_INC("prionn_rollbacks_total",
                   "shadow models discarded (live model kept serving)");
  }

  {
    util::ScopedLock wl(window_mutex_);
    if (accepted) {
      ++training_events_;
      trained_ = true;
      consecutive_rejections_ = 0;
      if (fit_embedding) embedding_ready_ = true;
    } else {
      ++rejected_retrains_;
      if (++consecutive_rejections_ >= options_.max_consecutive_rejections) {
        benched = true;
        nn_benched_.store(true, std::memory_order_relaxed);
        PRIONN_OBS_INC("prionn_nn_benched_total",
                       "times the neural net was benched for the run");
      }
    }
    trainer_busy_ = false;
    trainer_done_cv_.notify_all();
  }
  retrain_active_.store(false, std::memory_order_relaxed);

  event.accepted = accepted;
  event.rollback = !accepted;
  event.benched = benched;
  event.duration_ms =
      static_cast<double>(retrain_timer.elapsed_ns()) / 1e6;
  obs::emit(event);
  return accepted;
}

}  // namespace prionn::core::serve
