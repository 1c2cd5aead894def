// Workload `turnaround`: the §4.2 path. For each job of a long Cab-like
// trace, sched::ClusterSimulator::submit and then snapshot_turnaround,
// with the user's requested runtimes as the predictions, on a contended
// cluster where most submissions see a queue. Pure sched: no nn at all.
#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "sched/cluster.hpp"
#include "trace/workload.hpp"
#include "turnaround.hpp"
#include "util/stats.hpp"

namespace perfbench {

std::vector<prionn::sched::SimJob> sim_jobs(
    const std::vector<prionn::trace::JobRecord>& jobs) {
  std::vector<prionn::sched::SimJob> out;
  out.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    prionn::sched::SimJob s;
    s.id = i;
    s.submit_time = jobs[i].submit_time;
    s.nodes = std::max<std::uint32_t>(1, jobs[i].requested_nodes);
    s.runtime = std::max(1.0, jobs[i].runtime_minutes * 60.0);
    s.believed_runtime = std::max(1.0, jobs[i].requested_minutes * 60.0);
    out.push_back(s);
  }
  return out;
}

SchedPass sched_pass(const std::vector<prionn::sched::SimJob>& jobs,
                     std::uint32_t nodes, Tracer& tracer) {
  SchedPass pass;
  prionn::sched::ClusterSimulator sim({nodes, true});
  const auto predicted = [&jobs](std::uint64_t id) {
    return jobs[id].believed_runtime;
  };
  pass.predicted.reserve(jobs.size());
  for (const auto& job : jobs) {
    double t0 = now_s();
    {
      Span span(tracer, "sched.submit");
      sim.submit(job);
    }
    double t1 = now_s();
    pass.submit_us.push_back((t1 - t0) * 1e6);
    pass.queued += static_cast<double>(sim.queued_count());
    pass.completed_at_snapshot += static_cast<double>(sim.completed().size());
    if (sim.queued_count() > 0) ++pass.saw_queue;
    double turnaround = 0.0;
    t0 = now_s();
    {
      Span span(tracer, "sched.snapshot_turnaround");
      turnaround = sim.snapshot_turnaround(job.id, predicted);
    }
    t1 = now_s();
    pass.snapshot_us.push_back((t1 - t0) * 1e6);
    pass.predicted.push_back(turnaround);
  }
  sim.drain();
  pass.simulated.assign(jobs.size(), -1.0);
  for (const auto& done : sim.completed())
    pass.simulated[done.id] = done.turnaround();
  return pass;
}

void record_sched_layer(const SchedPass& pass, std::size_t jobs,
                        Recorder& rec) {
  const double n = static_cast<double>(jobs);
  rec.set("sched.submit_us", median(pass.submit_us), "us",
          pass.submit_us.size());
  rec.set("sched.snapshot_us", median(pass.snapshot_us), "us",
          pass.snapshot_us.size());
  rec.set("sched.queued_mean", pass.queued / n, "jobs", jobs);
  rec.set("sched.completed_at_snapshot_mean", pass.completed_at_snapshot / n,
          "jobs", jobs);
  rec.set("sched.wait_frac", static_cast<double>(pass.saw_queue) / n,
          "ratio", jobs);
  // Snapshot cost in the last tenth of the trace over the first tenth:
  // the clone copies the completed-jobs history, which grows along it.
  const std::size_t tenth = std::max<std::size_t>(1, jobs / 10);
  const std::vector<double> first(pass.snapshot_us.begin(),
                                  pass.snapshot_us.begin() + tenth);
  const std::vector<double> last(pass.snapshot_us.begin() + (jobs - tenth),
                                 pass.snapshot_us.begin() + jobs);
  rec.set("sched.snapshot_us.last_over_first_decile",
          median(last) / median(first), "ratio", 2 * tenth);
}

std::uint32_t contended_nodes(const std::vector<prionn::sched::SimJob>& jobs,
                              double target_queue) {
  // Mean queue length after a submission falls as nodes are added; find
  // the smallest node count whose plain replay (no snapshots) keeps it at
  // or below the target.
  const auto mean_queue = [&jobs](std::uint32_t nodes) {
    prionn::sched::ClusterSimulator sim({nodes, true});
    double queued = 0.0;
    for (const auto& job : jobs) {
      sim.submit(job);
      queued += static_cast<double>(sim.queued_count());
    }
    return queued / static_cast<double>(jobs.size());
  };
  std::uint32_t lo = 1, hi = 1296;
  for (const auto& job : jobs) lo = std::max(lo, job.nodes);
  if (mean_queue(hi) > target_queue) return hi;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (mean_queue(mid) <= target_queue)
      hi = mid;
    else
      lo = mid + 1;
  }
  return hi;
}

void run_turnaround(const Config& cfg, Tracer& tracer, Recorder& rec) {
  // Several independent traces per run, each on its own contended
  // cluster, so one trace's load pattern does not set the figures.
  const std::size_t n_jobs = cfg.smoke ? 800 : 6500;
  const std::size_t n_traces = cfg.smoke ? 2 : 8;
  rec.note("turnaround.traces", std::to_string(n_traces) + " x " +
                                    std::to_string(n_jobs) + " jobs");
  rec.note("turnaround.target_queue_mean", std::to_string(kTargetQueue));
  rec.note("turnaround.predictions", "user requested runtimes");

  struct Cluster {
    std::vector<prionn::sched::SimJob> jobs;
    std::uint32_t nodes = 0;
    SchedPass first;  // the first pass, kept for the output checks
    SchedPass pass;   // the latest pass
    double seconds = 0.0;
  };
  std::vector<double> setup_s;
  std::vector<Cluster> clusters;
  {
    // Set-up is single-threaded: each repetition runs pinned to the next
    // CPU in turn, so the median covers every core.
    CpuRotation rotation;
    for (std::size_t i = 0; i < 4; ++i) {
      rotation.pin(i);
      const double t0 = now_s();
      clusters.assign(n_traces, {});
      for (std::size_t k = 0; k < n_traces; ++k) {
        prionn::trace::WorkloadGenerator gen(
            prionn::trace::WorkloadOptions::cab(n_jobs + n_jobs / 8,
                                                cfg.seed * 7919 + k));
        auto records = prionn::trace::completed_jobs(gen.generate());
        if (records.size() > n_jobs) records.resize(n_jobs);
        clusters[k].jobs = sim_jobs(records);
        clusters[k].nodes = contended_nodes(clusters[k].jobs, kTargetQueue);
      }
      setup_s.push_back(now_s() - t0);
    }
  }
  rec.set("setup_s", median(setup_s), "s", setup_s.size());
  std::vector<double> nodes;
  for (const auto& c : clusters) {
    nodes.push_back(c.nodes);
    rec.check(c.jobs.size() == n_jobs,
              "turnaround: trace has the requested jobs");
  }
  rec.note("turnaround.nodes", join_ints(nodes));

  // Measure: whole passes over every trace until the budget is spent.
  // The clusters are independent, single-threaded simulators; a pass runs
  // them as one stream per CPU, each stream pinned to its own CPU, so one
  // run samples every core of a machine whose cores run at different
  // speeds. Rates are per stream (a single scheduler's rate). A pass is
  // deterministic, so accuracy and the sched counters come from the first
  // pass of each trace. Quantiles are taken per pass and summarised over
  // passes, so memory does not grow with the pass count.
  const std::size_t streams = std::min<std::size_t>(
      n_traces, std::max(1u, std::thread::hardware_concurrency()));
  rec.note("turnaround.streams", std::to_string(streams));
  std::vector<Tracer> stream_tracers;
  for (std::size_t w = 0; w < streams; ++w)
    stream_tracers.emplace_back(tracer.enabled());
  std::vector<double> p50s, p90s, p99s, submit_p50s, rates, accuracy;
  std::size_t passes = 0, saw_queue = 0, submissions = 0;
  const double deadline = now_s() + cfg.seconds;
  do {
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < streams; ++w)
      workers.emplace_back([&, w] {
        CpuRotation pin;
        pin.pin(w);
        for (std::size_t k = w; k < clusters.size(); k += streams) {
          const double t0 = now_s();
          clusters[k].pass = sched_pass(clusters[k].jobs, clusters[k].nodes,
                                        stream_tracers[w]);
          clusters[k].seconds = now_s() - t0;
        }
      });
    for (auto& t : workers) t.join();

    double busy = 0.0;
    std::size_t sent = 0;
    std::vector<double> snapshot_us, submit_us;
    for (auto& c : clusters) {
      const SchedPass& pass = c.pass;
      busy += c.seconds;
      sent += c.jobs.size();
      std::size_t ok = 0;
      for (std::size_t i = 0; i < c.jobs.size(); ++i) {
        const double p = pass.predicted[i];
        ok += std::isfinite(p) && p >= 0.0 && pass.simulated[i] >= 0.0;
      }
      rec.ops(c.jobs.size(), c.jobs.size() - ok);
      rec.check(ok == c.jobs.size(),
                "turnaround: every predicted turnaround is finite and >= 0");
      snapshot_us.insert(snapshot_us.end(), pass.snapshot_us.begin(),
                         pass.snapshot_us.end());
      submit_us.insert(submit_us.end(), pass.submit_us.begin(),
                       pass.submit_us.end());
      if (passes > 0) {
        rec.check(pass.predicted == c.first.predicted,
                  "turnaround: predictions repeat across passes");
        continue;
      }
      for (std::size_t i = 0; i < c.jobs.size(); ++i)
        if (pass.simulated[i] > 0.0)
          accuracy.push_back(prionn::util::relative_accuracy(
              pass.simulated[i], pass.predicted[i]));
      saw_queue += pass.saw_queue;
      submissions += c.jobs.size();
      c.first = pass;
    }
    rates.push_back(static_cast<double>(sent) / busy);
    p50s.push_back(median(snapshot_us));
    p90s.push_back(quantile(snapshot_us, 0.9));
    p99s.push_back(quantile(snapshot_us, 0.99));
    submit_p50s.push_back(median(submit_us));
    ++passes;
  } while (now_s() < deadline);
  rec.note("turnaround.passes", std::to_string(passes));

  const std::size_t samples = passes * n_traces * n_jobs;
  const double p50 = median(p50s), p99 = median(p99s);
  rec.set("throughput_per_s", median(rates), "1/s", rates.size());
  rec.set("latency_p50_ms", p50 / 1e3, "ms", samples);
  rec.set("latency_p90_ms", median(p90s) / 1e3, "ms", samples);
  rec.set("latency_p99_ms", p99 / 1e3, "ms", samples);
  rec.set("snapshot_us_p50", p50, "us", samples);
  rec.set("snapshot_us_p99", p99, "us", samples);
  rec.set("turnaround_accuracy_p50", median(accuracy), "ratio",
          accuracy.size());
  rec.set("submit_us_p50", median(submit_p50s), "us", samples);
  rec.set("wait_frac",
          static_cast<double>(saw_queue) / static_cast<double>(submissions),
          "ratio", submissions);
  if (tracer.enabled()) {
    // Per-layer sched metrics of the first trace, from its first traced
    // pass's own spans (stream 0 runs trace 0 first).
    const Cluster& c = clusters.front();
    SchedPass traced = c.first;
    traced.submit_us = stream_tracers[0].durations_us("sched.submit");
    traced.snapshot_us =
        stream_tracers[0].durations_us("sched.snapshot_turnaround");
    traced.submit_us.resize(c.jobs.size());
    traced.snapshot_us.resize(c.jobs.size());
    record_sched_layer(traced, c.jobs.size(), rec);
    for (const auto& t : stream_tracers) tracer.merge(t);
  }
}

}  // namespace perfbench
