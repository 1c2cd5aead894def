// Workload `replay`: the paper's phase-1 online protocol (§2.3) run as a
// closed loop through core::OnlineTrainer::run on a Cab-like trace, with
// the paper geometry (word2vec 64x64 grid, 2D-CNN kFast, three heads,
// retrain every 100 submissions on the last 500 completions). Training
// heavy; it never reaches the serving queue, the encoding cache or sched.
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/online.hpp"
#include "obs/obs.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

struct ReplayParams {
  std::size_t events;  // training events per replay
  std::size_t epochs;
  std::size_t grid;
  prionn::core::OnlineProtocolOptions protocol;
};

ReplayParams params(const Config& cfg) {
  ReplayParams p{};
  if (cfg.smoke) {
    p.events = 3;
    p.epochs = 1;
    p.grid = 16;
    p.protocol.retrain_interval = 40;
    p.protocol.train_window = 100;
    p.protocol.embedding_corpus = 100;
    p.protocol.min_initial_completions = 40;
  } else {
    p.events = 3;
    p.epochs = 1;
    p.grid = 64;  // paper geometry
    // Retrain every 100 on the last 500 (the defaults), first once 500
    // have completed, so every event trains on a full window and the
    // work per event does not depend on the seed.
    p.protocol.min_initial_completions = p.protocol.train_window;
  }
  return p;
}

prionn::core::OnlineOptions online_options(const ReplayParams& p) {
  prionn::core::OnlineOptions o;
  static_cast<prionn::core::OnlineProtocolOptions&>(o) = p.protocol;
  o.predictor.image.transform = prionn::core::Transform::kWord2Vec;
  o.predictor.image.rows = o.predictor.image.cols = p.grid;
  o.predictor.model = prionn::core::ModelKind::kCnn2d;
  o.predictor.preset = prionn::core::ModelPreset::kFast;
  o.predictor.epochs = p.epochs;
  o.predictor.predict_io = true;
  return o;
}

/// Index of the submission at which the first training event fires: the
/// first job whose submit time finds `min_completions` earlier jobs
/// already ended (the same completion rule as OnlineTrainer::run).
std::size_t first_event(const std::vector<prionn::trace::JobRecord>& jobs,
                        std::size_t min_completions) {
  std::priority_queue<double, std::vector<double>, std::greater<>> ends;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    while (!ends.empty() && ends.top() <= jobs[i].submit_time) {
      ends.pop();
      ++completed;
    }
    if (completed >= min_completions) return i;
    ends.push(jobs[i].end_time);
  }
  return jobs.size();
}

bool finite_prediction(const prionn::core::JobPrediction& p) {
  return std::isfinite(p.runtime_minutes) && std::isfinite(p.bytes_read) &&
         std::isfinite(p.bytes_written) && p.runtime_minutes >= 0.0;
}

}  // namespace

void run_replay(const Config& cfg, Tracer& tracer, Recorder& rec) {
  const ReplayParams p = params(cfg);
  const auto options = online_options(p);
  rec.note("replay.epochs_per_event", std::to_string(p.epochs));
  rec.note("replay.image", std::to_string(p.grid) + "x" +
                               std::to_string(p.grid) + " word2vec, 2D-CNN "
                               "kFast, 3 heads");
  rec.note("replay.protocol",
           "retrain every " + std::to_string(p.protocol.retrain_interval) +
               " on last " + std::to_string(p.protocol.train_window) +
               ", first after " +
               std::to_string(p.protocol.min_initial_completions));

  // Set-up: generate the trace, cut it so that exactly `events` training
  // events fire (the last one `retrain_interval` jobs before the end),
  // and build the untrained trainer. Several times; median = setup_s.
  std::vector<double> setup_s;
  std::vector<prionn::trace::JobRecord> jobs;
  std::size_t cut = 0;
  const std::size_t after_first = p.events * p.protocol.retrain_interval;
  {
    // Set-up is single-threaded: each repetition runs pinned to the next
    // CPU in turn, so the median covers every core.
    CpuRotation rotation;
    for (std::size_t i = 0; i < 8; ++i) {
      rotation.pin(i);
      const double t0 = now_s();
      prionn::trace::WorkloadGenerator gen(prionn::trace::WorkloadOptions::cab(
          4 * p.protocol.min_initial_completions + after_first, cfg.seed));
      jobs = prionn::trace::completed_jobs(gen.generate());
      cut = first_event(jobs, p.protocol.min_initial_completions) +
            after_first;
      if (jobs.size() > cut) jobs.resize(cut);
      prionn::core::OnlineTrainer warm(options);
      setup_s.push_back(now_s() - t0);
    }
  }
  rec.set("setup_s", median(setup_s), "s", setup_s.size());
  rec.check(jobs.size() == cut, "replay: trace reaches the last event");
  rec.note("replay.jobs", std::to_string(jobs.size()) + " (" +
                              std::to_string(after_first) +
                              " after the first event)");

  // Measure: whole replays until the time budget is spent.
  std::vector<double> rates, events_ms;
  std::vector<double> runtime_acc, read_acc;
  std::uint64_t first_digest = 0;
  std::size_t reps = 0, training_events = 0;
  const double deadline = now_s() + cfg.seconds;
  do {
    prionn::core::OnlineTrainer trainer(options);
    prionn::obs::trace_buffer().clear();
    const double t0 = now_s();
    prionn::core::OnlineResult result;
    {
      Span span(tracer, "replay.online_run");
      result = trainer.run(jobs);
    }
    const double wall = now_s() - t0;
    // Jobs through the protocol per second: the submissions from the
    // first training event on (the prefix before it only fills the
    // completion pool and costs next to nothing).
    rates.push_back(static_cast<double>(after_first) / wall);
    // Per-event training time, from the program's default-on
    // "online.retrain" span (its monotonic clock, one per event).
    std::size_t spans = 0;
    for (const auto& s : prionn::obs::trace_buffer().snapshot())
      if (std::string(s.name) == "online.retrain") {
        events_ms.push_back(static_cast<double>(s.duration_ns) / 1e6);
        ++spans;
      }
    training_events = result.training_events;
    rec.check(spans == result.training_events,
              "replay: one retrain span per training event");
    rec.check(result.training_events == p.events,
              "replay: the planned number of training events");

    // Output checks: one finite prediction per job after warm-up, and a
    // digest that repeats exactly for the same seed.
    const auto idx = result.predicted_indices();
    bool dense = !idx.empty();
    for (std::size_t k = 0; dense && k < idx.size(); ++k)
      dense = idx[k] == idx.front() + k;
    dense = dense && idx.back() + 1 == jobs.size();
    rec.check(dense, "replay: a prediction for every job after warm-up");
    std::uint64_t digest = 1469598103934665603ULL;
    std::size_t finite = 0;
    for (const std::size_t i : idx) {
      const auto& pred = *result.predictions[i];
      finite += finite_prediction(pred);
      const double v[3] = {pred.runtime_minutes, pred.bytes_read,
                           pred.bytes_written};
      digest = fnv1a(v, sizeof v, digest);
    }
    rec.check(finite == idx.size(), "replay: every prediction is finite");
    if (reps == 0) {
      first_digest = digest;
      for (const std::size_t i : idx) {
        const auto& pred = *result.predictions[i];
        runtime_acc.push_back(prionn::util::relative_accuracy(
            jobs[i].runtime_minutes, pred.runtime_minutes));
        read_acc.push_back(prionn::util::relative_accuracy(
            jobs[i].bytes_read, pred.bytes_read));
      }
    }
    rec.check(digest == first_digest,
              "replay: prediction digest repeats at the same seed");
    rec.op(true);  // one replay attempted
    ++reps;
  } while (now_s() < deadline);

  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(first_digest));
  rec.note("replay.prediction_digest", digest_hex);
  rec.note("replay.training_events_per_run", std::to_string(training_events));
  rec.note("replay.runs", std::to_string(reps));

  const double rate = median(rates);
  rec.set("throughput_per_s", rate, "1/s", rates.size());
  rec.set("latency_p50_ms", median(events_ms), "ms", events_ms.size());
  rec.set("latency_p90_ms", quantile(events_ms, 0.9), "ms", events_ms.size());
  rec.set("latency_p99_ms", quantile(events_ms, 0.99), "ms",
          events_ms.size());
  // The workload's own names, as in the benchmark's README.
  rec.set("replay_jobs_per_s", rate, "1/s", rates.size());
  rec.set("retrain_s", median(events_ms) / 1e3, "s", events_ms.size());
  rec.set("runtime_accuracy_p50", median(runtime_acc), "ratio",
          runtime_acc.size());
  rec.set("read_accuracy_p50", median(read_acc), "ratio", read_acc.size());
}

}  // namespace perfbench
