// Shared helpers for the reproduction benches. Every bench binary prints
// the paper's reported numbers next to our measured values, honours a
// --jobs/--epochs override (or PRIONN_BENCH_JOBS / PRIONN_BENCH_EPOCHS),
// and the phase-1-dependent benches (Figs. 8, 9, 11-15) share one cached
// online run so the expensive training pass happens once per cache
// directory.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "sched/cluster.hpp"
#include "trace/job_record.hpp"

namespace prionn::bench {

struct BenchArgs {
  std::size_t jobs = 0;    // 0 = bench-specific default
  std::size_t epochs = 0;  // 0 = bench-specific default
  std::uint64_t seed = 2016;
};

/// Parse --jobs=N / --epochs=N / --seed=N plus the matching environment
/// variables (PRIONN_BENCH_JOBS, PRIONN_BENCH_EPOCHS, PRIONN_BENCH_SEED).
BenchArgs parse_args(int argc, char** argv);

/// Uniform bench banner: experiment id, what the paper reports, and the
/// scale this run uses.
void print_banner(const std::string& experiment, const std::string& title,
                  const std::string& paper_claim, const std::string& scale);

/// One cached phase-1 pass: a Cab-like trace plus PRIONN's online
/// predictions (word2vec + 2D-CNN, IO heads on). Cached on disk under
/// `cache_dir` keyed by (jobs, epochs, seed); the first caller pays the
/// training cost, later benches load in milliseconds.
struct SharedRun {
  std::vector<trace::JobRecord> jobs;  // completed jobs, submit-sorted
  /// Parallel to jobs; unset while the model was still untrained.
  std::vector<std::optional<core::JobPrediction>> predictions;

  std::vector<std::size_t> predicted_indices() const;
  /// Predictions with a cold-start fallback (user request, tiny IO) so
  /// phase-2 pipelines can consume a dense vector.
  std::vector<core::JobPrediction> dense_predictions() const;
};

SharedRun shared_run(std::size_t n_jobs, std::size_t epochs,
                     std::uint64_t seed,
                     const std::string& cache_dir = "prionn_bench_cache");

/// Boxplot row formatting shared by the accuracy benches.
std::string accuracy_row(const std::vector<double>& accuracies);

/// Simulate the cluster schedule for a trace without snapshot replays
/// (sufficient for the perfect-turnaround IO evaluations of Figs. 12/13).
std::vector<sched::ScheduledJob> simulate_schedule(
    const std::vector<trace::JobRecord>& jobs, std::uint32_t nodes = 1296);

/// Export the process telemetry state (Prometheus text plus
/// metrics/events/trace JSONL) next to `<stem>.{prom,*.jsonl}` and print
/// where it went. The fig benches call this last, so every reproduction
/// run leaves a machine-readable account of its serving metrics.
void export_telemetry(const std::string& stem);

/// The Random-Forest baseline run under the same online protocol PRIONN
/// uses, on the same core::ProtocolCursor (predict at submission; first
/// fit after `retrain_interval` completions, then refit every
/// `retrain_interval` submissions on the `train_window` most recent
/// completions, Table-1 features). `target` extracts the training label
/// from a completed job. Returns one prediction per job (unset before
/// the first fit).
std::vector<std::optional<double>> online_random_forest(
    const std::vector<trace::JobRecord>& jobs,
    const std::function<double(const trace::JobRecord&)>& target,
    std::size_t retrain_interval = 100, std::size_t train_window = 500);

}  // namespace prionn::bench
