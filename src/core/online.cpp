#include "core/online.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace prionn::core {

void OnlineProtocolOptions::validate(const char* who) const {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (retrain_interval == 0) fail("retrain_interval must be > 0");
  if (train_window == 0) fail("train_window must be > 0");
  if (embedding_corpus == 0) fail("embedding_corpus must be > 0");
}

bool OnlineProtocolOptions::due(std::size_t completions,
                                std::size_t since_train, bool trained,
                                bool rejected) const {
  if (completions == 0) return false;
  if (trained) return since_train >= retrain_interval;
  return completions >= min_initial_completions &&
         (!rejected || since_train >= retrain_interval);
}

ProtocolCursor::ProtocolCursor(const std::vector<trace::JobRecord>& jobs,
                               const OnlineProtocolOptions& protocol)
    : jobs_(jobs), protocol_(protocol), in_flight_(LaterEnd{&jobs}) {
  completed_.reserve(jobs.size());
}

std::span<const std::size_t> ProtocolCursor::arrive(std::size_t i) {
  const std::size_t before = completed_.size();
  while (!in_flight_.empty() &&
         jobs_[in_flight_.top()].end_time <= jobs_[i].submit_time) {
    completed_.push_back(in_flight_.top());
    in_flight_.pop();
  }
  return std::span<const std::size_t>(completed_).subspan(before);
}

void ProtocolCursor::submit(std::size_t i) {
  ++since_train_;
  in_flight_.push(i);
}

std::span<const std::size_t> ProtocolCursor::recent(std::size_t n) const {
  const std::size_t count = std::min(n, completed_.size());
  return std::span<const std::size_t>(completed_).last(count);
}

std::vector<std::size_t> OnlineResult::predicted_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < predictions.size(); ++i)
    if (predictions[i]) out.push_back(i);
  return out;
}

OnlineTrainer::OnlineTrainer(OnlineOptions options)
    : options_(options), predictor_(options.predictor) {
  options_.validate("OnlineTrainer");
}

OnlineResult OnlineTrainer::run(const std::vector<trace::JobRecord>& jobs) {
  OnlineResult result;
  result.predictions.assign(jobs.size(), std::nullopt);

  ProtocolCursor cursor(jobs, options_);
  bool embedding_ready =
      options_.predictor.image.transform != Transform::kWord2Vec;

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    cursor.arrive(i);
    if (cursor.due(predictor_.trained(), /*rejected=*/false)) {
      std::vector<trace::JobRecord> recent;
      for (const std::size_t k : cursor.recent(options_.train_window))
        recent.push_back(jobs[k]);

      if (options_.reinitialize_on_retrain && predictor_.trained()) {
        // Cold-start ablation: throw the learned weights away but keep the
        // corpus-trained embedding, which the paper also fits once.
        embed::CharEmbedding embedding;
        const bool keep_embedding =
            options_.predictor.image.transform == Transform::kWord2Vec;
        if (keep_embedding) embedding = predictor_.mapper().embedding();
        predictor_ = PrionnPredictor(options_.predictor);
        if (keep_embedding) predictor_.set_embedding(std::move(embedding));
      }

      if (!embedding_ready) {
        std::vector<std::string> corpus;
        for (const std::size_t k : cursor.recent(options_.embedding_corpus))
          corpus.push_back(jobs[k].script);
        const std::uint64_t t0 = util::Timer::now_ns();
        predictor_.fit_embedding(corpus);
        result.train_ns += util::Timer::now_ns() - t0;
        embedding_ready = true;
      }

      {
        PRIONN_OBS_SPAN("online.retrain");
        const std::uint64_t t0 = util::Timer::now_ns();
        predictor_.train(recent);
        result.train_ns += util::Timer::now_ns() - t0;
      }
      PRIONN_OBS_INC("prionn_retrains_total",
                     "training events of the online protocol");
      ++result.training_events;
      cursor.retrained();
    }

    if (predictor_.trained()) {
      const std::uint64_t t0 = util::Timer::now_ns();
      result.predictions[i] =
          predictor_.predict_batch(std::span<const std::string>(&job.script, 1))
              .front()
              .value;
      const std::uint64_t elapsed_ns = util::Timer::now_ns() - t0;
      result.predict_ns += elapsed_ns;
      PRIONN_OBS_INC("prionn_predictions_total",
                     "predictions served at submission time");
      PRIONN_OBS_OBSERVE_NS("prionn_predict_latency_ns",
                            "per-job prediction latency", elapsed_ns);
    }
    cursor.submit(i);
  }
  result.train_seconds = static_cast<double>(result.train_ns) / 1e9;
  result.predict_seconds = static_cast<double>(result.predict_ns) / 1e9;
  PRIONN_OBS_GAUGE_SET("prionn_online_train_seconds",
                       "total monotonic time in training during a replay",
                       result.train_seconds);
  PRIONN_OBS_GAUGE_SET("prionn_online_predict_seconds",
                       "total monotonic time in inference during a replay",
                       result.predict_seconds);
  return result;
}

}  // namespace prionn::core
