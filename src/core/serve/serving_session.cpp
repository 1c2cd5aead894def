#include "core/serve/serving_session.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "util/fault.hpp"
#include "util/timer.hpp"

namespace prionn::core::serve {

std::vector<std::optional<JobPrediction>> SessionResult::nn_predictions()
    const {
  std::vector<std::optional<JobPrediction>> out(predictions.size());
  for (std::size_t i = 0; i < predictions.size(); ++i)
    if (predictions[i] &&
        predictions[i]->source == PredictionSource::kNeuralNet)
      out[i] = predictions[i]->value;
  return out;
}

ServingSession::ServingSession(SessionOptions options)
    : options_(std::move(options)) {
  if (options_.mode == ReplayMode::kConcurrent &&
      !options_.checkpoint_path.empty())
    throw std::invalid_argument(
        "ServingSession: checkpointing needs deterministic mode");
  // The mode owns the retrain policy: deterministic replay drives
  // training itself, concurrent replay delegates to the service.
  options_.service.background_retrain =
      options_.mode == ReplayMode::kConcurrent;
  service_ = std::make_unique<PredictionService>(options_.service);
}

SessionResult ServingSession::replay(
    const std::vector<trace::JobRecord>& jobs) {
  PRIONN_OBS_SPAN("serve.replay");
  const std::uint64_t t0 = util::Timer::now_ns();
  SessionResult result;
  result.predictions.assign(jobs.size(), std::nullopt);
  std::vector<std::future<ProvenancedPrediction>> futures(jobs.size());

  // The same §2.3 clock as OnlineTrainer, so the service sees completions
  // in the identical order the sequential replay would.
  ProtocolCursor cursor(jobs, options_.service.protocol);
  const auto arrive = [&](std::size_t i) {
    for (const std::size_t k : cursor.arrive(i)) service_->complete(jobs[k]);
  };

  std::size_t start = 0;
  if (!options_.checkpoint_path.empty()) {
    auto resumed = resume_checkpoint(options_.checkpoint_path);
    result.resume_source = resumed.source;
    result.resume_error = std::move(resumed.primary_error);
    if (resumed.checkpoint) {
      const auto& st = resumed.checkpoint->state;
      start = std::min<std::size_t>(
          static_cast<std::size_t>(st.next_index), jobs.size());
      // Replay the completion bookkeeping of everything the previous
      // incarnation processed (no model work), up to the window the
      // checkpointed training event saw, then install its model.
      for (std::size_t i = 0; i < start; ++i) {
        arrive(i);
        cursor.submit(i);
      }
      if (start < jobs.size()) arrive(start);
      cursor.retrained(static_cast<std::size_t>(st.submissions_since_train));
      service_->restore(std::move(resumed.checkpoint->predictor));
    }
  }
  result.resume_index = start;

  // Telemetry: one WindowEvent per prediction window (the submissions
  // between deterministic retrain boundaries; the whole replay in
  // concurrent mode), so the event log reconstructs the serving history.
  std::uint64_t retrain_attempts = 0;
  std::uint64_t checkpoint_generation = 0;
  std::size_t window_first = start;
  const auto close_window = [&](std::size_t end) {
    obs::WindowEvent w;
    w.window_id = retrain_attempts;
    w.first_job_index = window_first;
    w.checkpoint_generation = checkpoint_generation;
    std::array<std::size_t, 3> sources{};
    for (std::size_t k = window_first; k < end; ++k) {
      result.predictions[k] = futures[k].get();
      ++sources[static_cast<std::size_t>(result.predictions[k]->source)];
    }
    w.predictions = end - window_first;
    w.from_neural_net = sources[0];
    w.from_random_forest = sources[1];
    w.from_requested = sources[2];
    if (w.predictions > 0) obs::emit(w);
    window_first = end;
  };

  const bool deterministic = options_.mode == ReplayMode::kDeterministic;
  std::size_t end = jobs.size();

  for (std::size_t i = start; i < jobs.size(); ++i) {
    arrive(i);

    // Deterministic mode retrains at exactly the submissions where
    // OnlineTrainer would (plus a full-interval backoff after a
    // guard-rejected first attempt), with a flush() barrier first so
    // every outstanding request is served by the pre-retrain model. While
    // untrained, every attempt so far was rejected.
    if (deterministic &&
        cursor.due(service_->trained(), retrain_attempts > 0) &&
        !service_->stats().nn_benched) {
      service_->flush();
      close_window(i);
      ++retrain_attempts;
      cursor.retrained();
      if (service_->retrain_now(i, checkpoint_generation) &&
          !options_.checkpoint_path.empty()) {
        // A retrain was just accepted, so the embedding is fitted.
        OnlineCheckpointState st;
        st.next_index = i;
        st.embedding_ready = true;
        service_->write_checkpoint(options_.checkpoint_path, st);
        ++checkpoint_generation;
        if (util::fault::fire(util::fault::FaultPoint::kCrash)) {
          result.crashed = true;
          result.crash_index = end = i;
          break;
        }
      }
    }

    futures[i] = service_->submit(jobs[i]);
    cursor.submit(i);
  }

  service_->flush();
  close_window(end);
  result.training_events = service_->training_events();
  result.stats = service_->stats();
  result.replay_ns = util::Timer::now_ns() - t0;
  return result;
}

}  // namespace prionn::core::serve
