// Concurrent serving front-end for the PRIONN predictor: the paper's
// §2.3 protocol (predict at submission, retrain every retrain_interval
// submissions on the train_window most recent completions) decoupled
// from the sequential replay loops so inference never stalls behind a
// retrain.
//
//   submit() ──► bounded queue ──► batcher thread ──► one batched
//                                   forward pass per micro-batch
//   complete() ──► completion window ──► trainer thread ──► shadow
//                                   copy trained off-thread, published
//                                   with an atomic model swap
//
//   - Micro-batching: concurrent submit() calls are coalesced into
//     batches of at most `max_batch`, waiting at most `max_delay_us`
//     for peers, then served by ONE forward pass per head (the batch
//     path is per-sample identical to single-item predicts).
//   - Double-buffered model: the retrain thread snapshots the live
//     predictor (milliseconds), trains a shadow copy on the completion
//     window (seconds) with no lock held, and publishes it with a
//     pointer swap. A retrain that diverges or fails the holdback-
//     accuracy guard is discarded — the live model IS the last-good
//     snapshot, so rollback is free.
//   - Encoding cache: the script->image mapping is memoised per script
//     (serve/encoding_cache.hpp); repeat submissions skip the data-
//     mapping stage. Model swaps invalidate nothing; only an embedding
//     (re)fit clears it.
//   - Compute lanes: the batcher runs its forward passes inline on one
//     core; the trainer splits its loops over at most size() - 2 threads
//     of the global pool (one core left for the threads that submit), so
//     inference never waits for a training loop.
//     Every kernel gives the same bits at any lane width.
//   - Backpressure: when the queue is full, submit() sheds the request
//     to the fallback chain (RF -> requested, skipping the NN leg that
//     needs the busy model) and returns an already-resolved future, so
//     saturation degrades answer quality instead of latency.
//
// Everything is instrumented: queue depth, batch size, swap latency,
// cache hit rate, shed count (see DESIGN §11).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fallback.hpp"
#include "core/online.hpp"
#include "core/predictor.hpp"
#include "core/serve/encoding_cache.hpp"
#include "trace/job_record.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace prionn::core::serve {

struct BatchingOptions {
  /// Most submissions coalesced into one forward pass.
  std::size_t max_batch = 32;
  /// Longest the oldest queued request waits for peers before its batch
  /// is closed (the latency the batcher may add on a quiet service).
  std::uint64_t max_delay_us = 200;
  /// Bounded submit queue; a submit beyond this sheds to the fallback
  /// chain instead of queueing (backpressure).
  std::size_t queue_capacity = 1024;
};

struct ServiceOptions {
  PredictorOptions predictor;
  /// Shared §2.3 cadence parameters (same struct OnlineTrainer uses).
  OnlineProtocolOptions protocol;
  FallbackOptions fallback;
  BatchingOptions batching;

  /// Scripts memoised by the encoding cache; 0 disables it.
  std::size_t encoding_cache_capacity = 4096;

  /// true: a background thread retrains whenever the protocol cadence is
  /// due. false: the owner drives training explicitly via retrain_now()
  /// — the deterministic replay mode (ServingSession) uses this to stay
  /// prediction-for-prediction identical to OnlineTrainer.
  bool background_retrain = true;

  /// Divergence guards: a retrain whose losses go non-finite, throws
  /// nn::TrainingDiverged, or scores below
  /// `min_holdback_accuracy` on a held-back batch is rejected and the
  /// live model keeps serving (0 disables the holdback check).
  double min_holdback_accuracy = 0.0;
  std::size_t holdback_size = 32;
  /// Back-to-back rejected retrains before the NN is benched and the
  /// service degrades to the fallback chain for good.
  std::size_t max_consecutive_rejections = 3;

  /// Throws std::invalid_argument on parameters the service cannot run
  /// with (delegates protocol checks to OnlineProtocolOptions::validate).
  void validate() const;
};

/// Point-in-time snapshot of the service counters (monotonic except
/// queue-depth watermarks). Also exported through the obs registry as
/// prionn_serve_* metrics.
struct ServiceStats {
  std::uint64_t submitted = 0;     // submit() calls accepted or shed
  std::uint64_t served = 0;        // futures fulfilled
  std::uint64_t shed = 0;          // served via the backpressure path
  std::uint64_t batches = 0;       // forward passes run
  std::uint64_t batched_jobs = 0;  // sum of batch sizes
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t swaps = 0;              // accepted retrains published
  std::uint64_t rejected_retrains = 0;  // guard-rejected (rolled back)
  std::uint64_t max_queue_depth = 0;
  bool nn_benched = false;
  /// Fulfilled predictions by provenance, in PredictionSource order.
  std::array<std::uint64_t, 3> source_counts{};

  double mean_batch_size() const noexcept {
    return batches ? static_cast<double>(batched_jobs) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

class PredictionService {
 public:
  explicit PredictionService(ServiceOptions options);
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Enqueue one submission. The future resolves when the batcher has
  /// served it (or immediately, via the fallback chain, when the queue
  /// is saturated). Never blocks on training. Thread-safe.
  std::future<ProvenancedPrediction> submit(const trace::JobRecord& job);

  /// submit() + get(): the blocking single-item convenience.
  ProvenancedPrediction predict_now(const trace::JobRecord& job);

  /// Record a completed job into the training window; may arm the
  /// background retrain when the cadence is due. Thread-safe.
  void complete(const trace::JobRecord& job);

  /// Block until every accepted submission has been served and no
  /// retrain is in flight.
  void flush();

  /// Run one training event synchronously on the calling thread (only
  /// valid with background_retrain == false). Returns true when the new
  /// model was accepted and swapped in, false when the window was empty
  /// or the guards rejected it. `job_index` (the submission it precedes)
  /// and `checkpoint_generation` (durable writes so far) stamp its
  /// obs::RetrainEvent.
  bool retrain_now(std::uint64_t job_index = 0,
                   std::uint64_t checkpoint_generation = 0);

  /// Install a predictor resumed from a checkpoint as the live model:
  /// marks the embedding fitted, drops cached encodings, and refits the
  /// fallback baseline on the current completion window. Call before
  /// serving; trained() is true afterwards.
  void restore(PrionnPredictor predictor);

  /// Durable checkpoint of the live model plus the caller's replay
  /// cursor (core/checkpoint.hpp's write_checkpoint_file).
  void write_checkpoint(const std::string& path,
                        const OnlineCheckpointState& state) const;

  /// Accepted training events of this service (a restored model does
  /// not count).
  std::size_t training_events() const;
  /// True once a model is live: accepted by a retrain or restored.
  bool trained() const;

  /// True while a retrain (background or retrain_now) is running — the
  /// serving-latency benches use this to classify submissions.
  bool retrain_in_flight() const noexcept {
    return retrain_active_.load(std::memory_order_relaxed);
  }

  ServiceStats stats() const;
  const ServiceOptions& options() const noexcept { return options_; }

 private:
  struct Request {
    trace::JobRecord job;
    std::promise<ProvenancedPrediction> promise;
    std::uint64_t enqueue_ns = 0;
  };

  void batcher_loop();
  void trainer_loop();
  /// Serve one popped micro-batch: one forward pass for the NN-eligible
  /// requests, fallback chain for the rest.
  void serve_batch(std::vector<Request>& batch);
  /// One full training event: snapshot -> shadow train -> guards ->
  /// swap-or-discard. Returns true when the shadow was published.
  /// `claimed` means the caller already owns the trainer_busy_ slot; the
  /// other two arguments stamp the RetrainEvent.
  bool run_retrain(bool claimed, std::uint64_t job_index,
                   std::uint64_t checkpoint_generation);
  /// Cadence check; callers hold window_mutex_.
  bool retrain_due() const PRIONN_REQUIRES(window_mutex_);
  void fulfill(Request& request, const ProvenancedPrediction& prediction);

  ServiceOptions options_;

  // --- submit queue: producers -> batcher -------------------------------
  mutable util::Mutex queue_mutex_;
  util::CondVar queue_cv_;  // batcher waits for work / batch fill
  util::CondVar idle_cv_;   // flush() waits for outstanding_ == 0
  std::deque<Request> pending_ PRIONN_GUARDED_BY(queue_mutex_);
  std::size_t outstanding_ PRIONN_GUARDED_BY(queue_mutex_) = 0;
  std::uint64_t max_queue_depth_ PRIONN_GUARDED_BY(queue_mutex_) = 0;
  bool drain_fast_ PRIONN_GUARDED_BY(queue_mutex_) = false;
  bool stopping_ PRIONN_GUARDED_BY(queue_mutex_) = false;

  // --- live model: batcher <-> trainer ----------------------------------
  // Held during a batch forward pass, a snapshot encode, and the pointer
  // swap — never during training itself, which runs on the shadow copy.
  mutable util::Mutex model_mutex_;
  std::unique_ptr<PrionnPredictor> live_ PRIONN_GUARDED_BY(model_mutex_);

  // --- completion window & protocol cadence -----------------------------
  mutable util::Mutex window_mutex_;
  util::CondVar trainer_cv_;       // trainer waits for a due cadence
  util::CondVar trainer_done_cv_;  // flush() waits for trainer idle
  std::deque<trace::JobRecord> window_ PRIONN_GUARDED_BY(window_mutex_);
  std::size_t total_completions_ PRIONN_GUARDED_BY(window_mutex_) = 0;
  std::size_t submissions_since_train_ PRIONN_GUARDED_BY(window_mutex_) = 0;
  std::size_t training_events_ PRIONN_GUARDED_BY(window_mutex_) = 0;
  std::size_t rejected_retrains_ PRIONN_GUARDED_BY(window_mutex_) = 0;
  std::size_t consecutive_rejections_ PRIONN_GUARDED_BY(window_mutex_) = 0;
  bool trained_ PRIONN_GUARDED_BY(window_mutex_) = false;
  bool embedding_ready_ PRIONN_GUARDED_BY(window_mutex_) = false;
  bool retrain_requested_ PRIONN_GUARDED_BY(window_mutex_) = false;
  bool trainer_busy_ PRIONN_GUARDED_BY(window_mutex_) = false;
  bool trainer_stop_ PRIONN_GUARDED_BY(window_mutex_) = false;

  // --- fallback chain: batcher + shed path + trainer refit --------------
  mutable util::Mutex fallback_mutex_;
  FallbackPredictor fallback_ PRIONN_GUARDED_BY(fallback_mutex_);

  // --- batcher-private (single-threaded, no lock) -----------------------
  EncodingCache cache_;
  std::uint64_t cache_epoch_seen_ = 0;

  // --- cross-thread flags & counters (relaxed atomics) ------------------
  std::atomic<std::uint64_t> cache_epoch_{0};  // bumped on embedding fit
  std::atomic<bool> nn_benched_{false};
  std::atomic<bool> retrain_active_{false};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_jobs_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::array<std::atomic<std::uint64_t>, 3> source_counts_{};

  std::thread batcher_;
  std::thread trainer_;
};

}  // namespace prionn::core::serve
