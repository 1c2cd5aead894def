// Resilient serving demo: replay a synthetic job queue through a
// deterministic ServingSession with checkpointing on, while the fault
// harness injects every failure class at once — NaN-poisoned retrains,
// torn checkpoint writes, garbage trace rows. The run must not abort:
// divergent retrains are discarded while the last-good model keeps
// serving, damaged checkpoints fall back to the last-good generation,
// and every job still receives a prediction with provenance.
//
// The run is fully instrumented: it ends with a telemetry summary table
// read back from the metrics registry and exports the whole telemetry
// state (Prometheus text, metrics/events/trace JSONL) next to
// `prionn_serving_telemetry.*`.
//
//   ./build/examples/resilient_serving [jobs] [fault-seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/serve/serving_session.hpp"
#include "obs/obs.hpp"
#include "trace/store.hpp"
#include "trace/workload.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace prionn;

namespace {

/// Scribble over every `stride`-th record's submit field so the
/// quarantine path of the loader has real work on this run.
void corrupt_trace_file(const std::string& path, std::size_t stride) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  std::string text = std::move(buffer).str();
  std::size_t pos = 0, seen = 0;
  while ((pos = text.find("\nsubmit ", pos)) != std::string::npos) {
    pos += 8;  // past "\nsubmit "
    // insert(pos, count, char) rather than insert(pos, "x"): the char*
    // overload trips GCC 12's -Wrestrict false positive (PR 105651).
    if (++seen % stride == 0) text.insert(pos, 1, 'x');
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
}

std::string count_of(const char* name) {
  return std::to_string(obs::registry().counter(name).value());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n_jobs =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 800;
  const std::uint64_t fault_seed =
      argc > 2 ? static_cast<std::uint64_t>(std::atoll(argv[2])) : 42;

  std::printf("generating %zu-job Cab-like workload...\n", n_jobs);
  trace::WorkloadGenerator generator(trace::WorkloadOptions::cab(n_jobs));
  const auto generated = trace::completed_jobs(generator.generate());

  // Round-trip the workload through the trace store with a handful of
  // rows scribbled over, so ingestion exercises the quarantine path (and
  // emits its ingest telemetry) before serving starts.
  const auto tmp_dir = std::filesystem::temp_directory_path();
  const std::string trace_path = (tmp_dir / "prionn_demo.trace").string();
  trace::save_trace_file(trace_path, generated);
  corrupt_trace_file(trace_path, 50);
  trace::TraceLoadOptions load_options;
  load_options.max_quarantine_fraction = 0.05;
  trace::QuarantineReport quarantine;
  const auto jobs =
      trace::load_trace_file(trace_path, load_options, &quarantine);
  std::printf("ingest: %s\n", quarantine.summary().c_str());
  std::filesystem::remove(trace_path);

  const std::string checkpoint = (tmp_dir / "prionn_demo.ckpt").string();
  std::filesystem::remove(checkpoint);
  std::filesystem::remove(checkpoint + ".last-good");

  core::serve::SessionOptions options;
  options.service.predictor.image.rows = 32;
  options.service.predictor.image.cols = 32;
  options.service.predictor.image.transform = core::Transform::kSimple;
  options.service.predictor.epochs = 3;
  options.service.predictor.runtime_bins = 96;
  options.service.predictor.predict_io = false;
  options.mode = core::serve::ReplayMode::kDeterministic;
  options.checkpoint_path = checkpoint;

  // Deterministic fault schedule: the 2nd retrain is NaN-poisoned, the
  // 1st and 3rd checkpoint writes are torn/corrupted.
  util::fault::FaultPlan plan;
  plan.seed = fault_seed;
  plan.point(util::fault::FaultPoint::kNanPoisonBatch).fire_at = {2};
  plan.point(util::fault::FaultPoint::kCheckpointTruncate).fire_at = {1};
  plan.point(util::fault::FaultPoint::kSnapshotCorrupt).fire_at = {3};
  util::fault::ScopedFaultPlan armed(plan);

  std::printf("serving %zu submissions with faults armed (seed %llu)...\n",
              jobs.size(),
              static_cast<unsigned long long>(fault_seed));
  core::serve::ServingSession session(options);
  const auto result = session.replay(jobs);

  const auto& counts = result.stats.source_counts;
  std::printf("\n%zu accepted training events, %llu rejected retrains "
              "(discarded; the last-good model kept serving)\n",
              result.training_events,
              static_cast<unsigned long long>(
                  result.stats.rejected_retrains));
  std::printf("provenance: %llu neural-net, %llu random-forest, %llu "
              "requested-runtime\n",
              static_cast<unsigned long long>(counts[0]),
              static_cast<unsigned long long>(counts[1]),
              static_cast<unsigned long long>(counts[2]));

  std::vector<double> nn_acc;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& p = result.predictions[i];
    if (p && p->source == core::PredictionSource::kNeuralNet)
      nn_acc.push_back(util::relative_accuracy(jobs[i].runtime_minutes,
                                               p->value.runtime_minutes));
  }
  if (!nn_acc.empty())
    std::printf("NN runtime accuracy where the NN served: %.1f%%\n",
                100.0 * util::mean(nn_acc));

  // Prove the recovery path: the primary checkpoint was damaged by the
  // fault plan, so a restart resumes from wherever is still loadable.
  const auto resumed = core::resume_checkpoint(checkpoint);
  std::printf("restart would resume from the %s checkpoint%s%s\n",
              core::checkpoint_source_name(resumed.source),
              resumed.primary_error.empty() ? "" : " (primary: ",
              resumed.primary_error.empty()
                  ? ""
                  : (resumed.primary_error + ")").c_str());

  // --- end-of-run telemetry, read back from the registry -------------
  if (!obs::kEnabled)
    std::printf("\n(telemetry compiled out: PRIONN_OBS=OFF — the summary "
                "below reads as zeros)\n");
  auto& submit_latency =
      obs::registry().latency("prionn_serve_submit_latency_ns");
  util::Table table({"telemetry", "value"});
  table.add_row({"predictions served",
                 count_of("prionn_predictions_total")});
  table.add_row({"  from neural net",
                 count_of("prionn_predictions_nn_total")});
  table.add_row({"  from random forest",
                 count_of("prionn_predictions_rf_total")});
  table.add_row({"  from user request",
                 count_of("prionn_predictions_requested_total")});
  table.add_row({"retrains accepted", count_of("prionn_retrains_total")});
  table.add_row({"retrains rejected",
                 count_of("prionn_retrains_rejected_total")});
  table.add_row({"rollbacks", count_of("prionn_rollbacks_total")});
  table.add_row({"checkpoint writes",
                 count_of("prionn_checkpoint_writes_total")});
  table.add_row({"trace rows accepted",
                 count_of("prionn_trace_rows_total")});
  table.add_row({"trace rows quarantined",
                 count_of("prionn_quarantined_rows_total")});
  table.add_row({"submit latency p50 (us)",
                 util::fmt(submit_latency.quantile(0.5) / 1e3, 1)});
  table.add_row({"submit latency p99 (us)",
                 util::fmt(submit_latency.quantile(0.99) / 1e3, 1)});
  std::printf("\n%s", table.to_string().c_str());

  obs::export_telemetry_files("prionn_serving_telemetry");
  std::printf("\ntelemetry exported: prionn_serving_telemetry.prom, "
              ".metrics.jsonl, .events.jsonl, .trace.jsonl "
              "(%zu events, %llu spans)\n",
              obs::event_log().size(),
              static_cast<unsigned long long>(
                  obs::trace_buffer().total_recorded()));

  std::filesystem::remove(checkpoint);
  std::filesystem::remove(checkpoint + ".last-good");
  return 0;
}
