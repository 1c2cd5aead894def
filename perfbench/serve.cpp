// Workload `serve`: a core::serve::PredictionService in concurrent mode
// (background retrain), warmed in set-up, driven as an open loop from one
// generator thread. Arrivals replay the Cab trace's own inter-arrival
// pattern compressed to a fixed mean rate, so job-array bursts and the
// 65% script-repeat share survive; completions are fed as the compressed
// clock passes each job's end, so retrains fire on the protocol cadence.
// Latency runs from each request's due time to the resolution of its
// future. A nominal-rate phase is followed by a short ladder of rates.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/serve/prediction_service.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

namespace serve = prionn::core::serve;

// Parameters of the serve workload, stated in the run record.
struct ServeParams {
  std::size_t grid = 64;        // word2vec script image, paper geometry
  std::size_t epochs = 1;       // per training event
  std::size_t warm_jobs = 500;  // warm model's window (= train window)
  int setups = 3;               // warm set-ups per run (median = setup_s)
  double nominal_rate = 150.0;  // requests/s, the latency phase
  std::vector<double> ladder{75.0, 150.0, 300.0};
  double p99_limit_ms = 50.0;  // goodput's latency limit
  std::size_t burst_jobs = 300;  // sent at once: the capacity phases
  int bursts = 5;
  /// The nominal phase takes half the run, the ladder about a third.
  double nominal_seconds(const Config& cfg) const { return cfg.seconds / 2; }
  double rung_seconds(const Config& cfg) const {
    return cfg.seconds / 3 / static_cast<double>(ladder.size());
  }
};

ServeParams serve_params(const Config& cfg) {
  ServeParams p;
  if (cfg.smoke) {
    p.grid = 16;
    p.warm_jobs = 60;
    p.setups = 1;
    p.nominal_rate = 40.0;
    p.ladder = {20.0, 40.0};
    p.burst_jobs = 40;
    p.bursts = 2;
  }
  return p;
}

using prionn::core::PredictionSource;
using prionn::core::ProvenancedPrediction;

serve::ServiceOptions service_options(const ServeParams& p) {
  serve::ServiceOptions o;
  o.predictor.image.transform = prionn::core::Transform::kWord2Vec;
  o.predictor.image.rows = o.predictor.image.cols = p.grid;
  o.predictor.model = prionn::core::ModelKind::kCnn2d;
  o.predictor.preset = prionn::core::ModelPreset::kFast;
  o.predictor.epochs = p.epochs;
  o.predictor.predict_io = true;
  // The first training event waits for the whole warm window, so the
  // warm model is trained on exactly `warm_jobs` completions.
  o.protocol.train_window = p.warm_jobs;
  o.protocol.embedding_corpus = p.warm_jobs;
  o.protocol.min_initial_completions = p.warm_jobs;
  o.background_retrain = true;
  return o;
}

struct Phase {
  enum Kind { kNominal, kRung, kBurst } kind;
  double rate;       // mean offered requests per second (0 for the burst)
  std::size_t jobs;  // requests sent
};

/// What the collector learns about one phase.
struct PhaseResult {
  std::vector<double> latency_ms;          // every resolved request
  std::vector<double> retrain_latency_ms;  // those sent during a retrain
  std::vector<double> runtime_accuracy;    // NN answers vs truth
  std::vector<double> gen_lag_ms;
  double start = 0.0, last_resolved = 0.0;
  std::size_t sent = 0, nn = 0, other = 0, failed = 0, unresolved = 0;
  std::size_t during_retrain = 0;
  std::uint64_t shed = 0, stats_submitted = 0, stats_served = 0,
                stats_nn = 0;
};

struct Pending {
  double due;
  std::future<ProvenancedPrediction> future;
  std::size_t phase;
  double truth_minutes;
  bool during_retrain;
};

/// Resolves futures in submission order on its own thread and stamps
/// each with its resolution time.
class Collector {
 public:
  explicit Collector(std::vector<PhaseResult>& results)
      : results_(results), thread_([this] { loop(); }) {}
  ~Collector() { finish(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(Pending p) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(p));
    }
    cv_.notify_one();
  }
  /// Block until `n` requests in total have been resolved or given up.
  void wait_processed(std::size_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    processed_cv_.wait(lock, [&] { return processed_ >= n; });
  }
  void finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      resolve(p);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++processed_;
      }
      processed_cv_.notify_all();
    }
  }

  void resolve(Pending& p) {
    PhaseResult& r = results_[p.phase];
    if (p.future.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      ++r.unresolved;
      return;
    }
    try {
      const ProvenancedPrediction pred = p.future.get();
      const double t = now_s();
      r.last_resolved = std::max(r.last_resolved, t);
      const double ms = (t - p.due) * 1e3;
      r.latency_ms.push_back(ms);
      if (p.during_retrain) r.retrain_latency_ms.push_back(ms);
      const bool finite = std::isfinite(pred.value.runtime_minutes) &&
                          std::isfinite(pred.value.bytes_read) &&
                          std::isfinite(pred.value.bytes_written);
      if (!finite) {
        ++r.failed;
      } else if (pred.source == PredictionSource::kNeuralNet) {
        ++r.nn;
        r.runtime_accuracy.push_back(prionn::util::relative_accuracy(
            p.truth_minutes, pred.value.runtime_minutes));
      } else {
        ++r.other;
      }
    } catch (const std::exception&) {
      ++r.failed;
    }
  }

  std::vector<PhaseResult>& results_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable processed_cv_;
  std::deque<Pending> queue_;
  std::size_t processed_ = 0;
  bool done_ = false;
  std::thread thread_;  // last: started after the members it uses
};

void sleep_until(double t) {
  for (;;) {
    const double left = t - now_s();
    if (left <= 0.0) return;
    if (left > 300e-6)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(left - 200e-6));
    else
      std::this_thread::yield();
  }
}

}  // namespace

void run_serve(const Config& cfg, Tracer& tracer, Recorder& rec) {
  const ServeParams p = serve_params(cfg);
  const auto jobs_at = [](double rate, double seconds) {
    return static_cast<std::size_t>(std::ceil(rate * seconds));
  };
  std::vector<Phase> phases{{Phase::kNominal, p.nominal_rate,
                             jobs_at(p.nominal_rate, p.nominal_seconds(cfg))}};
  for (const double r : p.ladder)
    phases.push_back({Phase::kRung, r, jobs_at(r, p.rung_seconds(cfg))});
  for (int b = 0; b < p.bursts; ++b)
    phases.push_back({Phase::kBurst, 0.0, p.burst_jobs});
  std::size_t needed = p.warm_jobs + 1;
  for (const auto& ph : phases) needed += ph.jobs;
  rec.note("serve.warm_jobs", std::to_string(p.warm_jobs));
  rec.note("serve.image", std::to_string(p.grid) + "x" +
                              std::to_string(p.grid) +
                              " word2vec, 2D-CNN kFast, 3 heads");
  rec.note("serve.epochs_per_event", std::to_string(p.epochs));
  rec.note("serve.protocol", "retrain every 100 submissions on last " +
                                 std::to_string(p.warm_jobs));
  rec.note("serve.nominal", std::to_string(phases[0].jobs) + " requests at " +
                                std::to_string(p.nominal_rate) + " rps");
  rec.note("serve.ladder_rps", join_ints(p.ladder) + " for " +
                                   std::to_string(p.rung_seconds(cfg)) +
                                   " s each");
  rec.note("serve.bursts", std::to_string(p.bursts) + " x " +
                               std::to_string(p.burst_jobs) +
                               " requests due at once");
  rec.note("serve.p99_limit_ms", std::to_string(p.p99_limit_ms));
  rec.note("serve.trace_jobs", std::to_string(needed));

  // Set-up: trace + a warm service (embedding fit and one training event
  // on the first warm_jobs completions). Several times; median.
  std::vector<double> setup_s;
  std::vector<prionn::trace::JobRecord> jobs;
  std::unique_ptr<serve::PredictionService> service;
  for (int i = 0; i < p.setups; ++i) {
    service.reset();
    const double t0 = now_s();
    prionn::trace::WorkloadGenerator gen(prionn::trace::WorkloadOptions::cab(
        needed + needed / 4 + 50, cfg.seed));
    jobs = prionn::trace::completed_jobs(gen.generate());
    if (jobs.size() <= p.warm_jobs) break;
    service = std::make_unique<serve::PredictionService>(service_options(p));
    for (std::size_t k = 0; k < p.warm_jobs; ++k) service->complete(jobs[k]);
    // Only a submission arms a due retrain: send one warm-up request
    // (answered by the fallback chain) and wait for the training event.
    service->submit(jobs[p.warm_jobs]).get();
    const double give_up = now_s() + 120.0;
    while (service->training_events() == 0 && now_s() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    service->flush();
    setup_s.push_back(now_s() - t0);
  }
  rec.check(jobs.size() >= needed, "serve: trace has the jobs the run needs");
  if (jobs.size() < needed) throw std::runtime_error("serve: trace too short");
  rec.set("setup_s", median(setup_s), "s", setup_s.size());
  rec.check(service->training_events() == 1,
            "serve: the warm model is trained in set-up");

  std::vector<PhaseResult> results(phases.size());
  std::vector<serve::ServiceStats> stats_at(phases.size() + 1);
  stats_at[0] = service->stats();
  {
    Collector collector(results);
    // Completions pending on the compressed clock: (end, job index).
    using Due = std::pair<double, std::size_t>;
    std::priority_queue<Due, std::vector<Due>, std::greater<>> ends;
    std::size_t next = p.warm_jobs + 1, pushed = 0;
    for (std::size_t ph = 0; ph < phases.size(); ++ph) {
      const Phase& phase = phases[ph];
      const std::size_t lo = next, hi = next + phase.jobs;
      next = hi;
      // Compress the trace's own arrival times so the phase's mean rate
      // is phase.rate; the burst sends everything at its start.
      const double span_s =
          std::max(1.0, jobs[hi - 1].submit_time - jobs[lo].submit_time);
      const double scale =
          phase.kind == Phase::kBurst
              ? 0.0
              : static_cast<double>(phase.jobs) / (phase.rate * span_s);
      PhaseResult& r = results[ph];
      r.start = now_s() + 0.02;
      for (std::size_t k = lo; k < hi; ++k) {
        const double due =
            r.start + (jobs[k].submit_time - jobs[lo].submit_time) * scale;
        sleep_until(due);
        const double t = now_s();
        while (!ends.empty() && ends.top().first <= t) {
          Span span(tracer, "serve.complete");
          service->complete(jobs[ends.top().second]);
          ends.pop();
        }
        const bool retraining = service->retrain_in_flight();
        std::future<ProvenancedPrediction> future;
        {
          Span span(tracer, "serve.submit");
          future = service->submit(jobs[k]);
        }
        r.gen_lag_ms.push_back((now_s() - due) * 1e3);
        ++r.sent;
        r.during_retrain += retraining;
        ends.emplace(
            r.start + (jobs[k].end_time - jobs[lo].submit_time) * scale, k);
        collector.push({due, std::move(future), ph, jobs[k].runtime_minutes,
                        retraining});
        ++pushed;
      }
      // The phase's requests resolve before the next phase starts; the
      // trainer keeps running across phases.
      collector.wait_processed(pushed);
      stats_at[ph + 1] = service->stats();
    }
    collector.finish();
  }

  // Output checks and accounting, per phase.
  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    PhaseResult& r = results[ph];
    const auto& s0 = stats_at[ph];
    const auto& s1 = stats_at[ph + 1];
    r.shed = s1.shed - s0.shed;
    const std::uint64_t submitted = s1.submitted - s0.submitted;
    const std::uint64_t served = s1.served - s0.served;
    const std::uint64_t nn = s1.source_counts[0] - s0.source_counts[0];
    const std::size_t fallback = r.other >= r.shed ? r.other - r.shed : 0;
    const std::string at =
        phases[ph].kind == Phase::kBurst
            ? std::string(" (burst)")
            : " (" + std::to_string(static_cast<int>(phases[ph].rate)) +
                  " rps)";
    rec.check(r.unresolved == 0, "serve: every future resolves" + at);
    rec.check(r.other >= r.shed &&
                  r.sent == r.nn + fallback + r.shed + r.failed + r.unresolved,
              "serve: sent = NN + fallback + shed + failed" + at);
    rec.check(submitted == r.sent && served == r.nn + r.other && nn == r.nn,
              "serve: service counters agree with the client" + at);
    rec.ops(r.sent, r.failed + r.unresolved);
  }

  // Goodput: the highest ladder rate whose p99 meets the limit with
  // nothing shed or failed.
  double goodput = 0.0;
  for (std::size_t ph = 0; ph < phases.size(); ++ph) {
    const PhaseResult& r = results[ph];
    if (phases[ph].kind != Phase::kRung) continue;
    const double p99 = quantile(r.latency_ms, 0.99);
    char key[64];
    std::snprintf(key, sizeof key, "rate_%d.submit_p99_ms",
                  static_cast<int>(phases[ph].rate));
    rec.set(key, p99, "ms", r.latency_ms.size());
    if (p99 <= p.p99_limit_ms && r.shed == 0 && r.failed == 0 &&
        r.unresolved == 0)
      goodput = std::max(goodput, phases[ph].rate);
  }
  // Capacity: requests resolved per second while a burst drains, the
  // median over the bursts.
  std::vector<double> burst_rps;
  for (std::size_t ph = 0; ph < phases.size(); ++ph)
    if (phases[ph].kind == Phase::kBurst)
      burst_rps.push_back(
          static_cast<double>(results[ph].sent) /
          std::max(1e-9, results[ph].last_resolved - results[ph].start));
  const double capacity = median(burst_rps);
  rec.note("serve.burst_rps", join_ints(burst_rps));

  const PhaseResult& n = results.front();
  const double sent = static_cast<double>(std::max<std::size_t>(1, n.sent));
  const double p50 = median(n.latency_ms);
  const double tail = supported_tail(n.latency_ms.size());
  const double p99 = quantile(n.latency_ms, tail);
  rec.note("serve.nominal_tail_percentile", std::to_string(tail));
  rec.set("throughput_per_s", capacity, "1/s", burst_rps.size());
  rec.set("latency_p50_ms", p50, "ms", n.latency_ms.size());
  rec.set("latency_p90_ms", quantile(n.latency_ms, 0.9), "ms",
          n.latency_ms.size());
  rec.set("latency_p99_ms", p99, "ms", n.latency_ms.size());
  rec.set("runtime_accuracy_p50", median(n.runtime_accuracy), "ratio",
          n.runtime_accuracy.size());
  rec.set("submit_p50_ms", p50, "ms", n.latency_ms.size());
  rec.set("submit_p99_ms", p99, "ms", n.latency_ms.size());
  rec.set("submit_p99_retrain_ms",
          quantile(n.retrain_latency_ms,
                   supported_tail(n.retrain_latency_ms.size())),
          "ms", n.retrain_latency_ms.size());
  rec.set("goodput_rps", goodput, "1/s", p.ladder.size());
  rec.set("burst_capacity_rps", capacity, "1/s", burst_rps.size());
  rec.set("nn_served_frac", static_cast<double>(n.nn) / sent, "ratio", n.sent);
  rec.set("shed_frac", static_cast<double>(n.shed) / sent, "ratio", n.sent);

  if (tracer.enabled()) {
    const auto& s0 = stats_at.front();
    const auto& s1 = stats_at.back();
    const double batches = static_cast<double>(s1.batches - s0.batches);
    const double batched =
        static_cast<double>(s1.batched_jobs - s0.batched_jobs);
    const double hits = static_cast<double>(s1.cache_hits - s0.cache_hits);
    const double misses =
        static_cast<double>(s1.cache_misses - s0.cache_misses);
    rec.set("serve.batch_mean", batches > 0 ? batched / batches : 0.0, "jobs",
            static_cast<std::size_t>(batches));
    rec.set("serve.cache_hit_frac",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
            static_cast<std::size_t>(hits + misses));
    rec.set("serve.max_queue_depth", static_cast<double>(s1.max_queue_depth),
            "jobs", 1);
    rec.set("serve.swaps", static_cast<double>(s1.swaps - s0.swaps), "count",
            1);
    rec.set("serve.rejected_retrains",
            static_cast<double>(s1.rejected_retrains - s0.rejected_retrains),
            "count", 1);
    rec.set("serve.retrain_busy_frac",
            static_cast<double>(n.during_retrain) / sent, "ratio", n.sent);
    rec.set("serve.gen_lag_p99_ms", quantile(n.gen_lag_ms, tail), "ms",
            n.gen_lag_ms.size());
  }
}

}  // namespace perfbench
