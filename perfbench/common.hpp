// Shared pieces of the PRIONN benchmark driver: the run configuration,
// the metric and check recorder behind the one-line JSON result, the
// benchmark's own span tracer, and small statistics helpers.
//
// Every timing here is taken from outside the program, around calls to
// its public functions, with std::chrono::steady_clock.
#pragma once
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed command line: --workload NAME --seed N --seconds S --trace 0|1,
/// plus --smoke for the benchmark's own tests (tiny sizes, same code).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Monotonic seconds since an arbitrary epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median / linear-interpolation quantile of a copy (empty -> 0).
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// The highest of p99, p95, p90, p50 that still has at least ten samples
/// above it, as a fraction (0.99, ...). Tail percentiles with fewer
/// samples behind them are not reported as such.
double supported_tail(std::size_t samples);

/// "a,b,c" with each value rounded to an integer, for record lines.
std::string join_ints(const std::vector<double>& xs);

/// Peak resident set size of this process so far, in MB (VmHWM).
double peak_rss_mb();

/// FNV-1a over raw bytes, for output digests.
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ULL);

/// One named measurement, printed in the report and, when selected, in
/// the JSON result line.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// Collects metrics, output checks and operation counts for one run.
class Recorder {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  bool has(const std::string& name) const { return metrics_.count(name); }
  const Metric& get(const std::string& name) const {
    return metrics_.at(name);
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// Count one attempted operation; a false `ok` counts it as failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// An output check: a failure counts as a failed operation and makes
  /// the run incorrect. Checks are never skipped.
  void check(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

  /// Plain-text line for the record section of the report.
  void note(const std::string& key, const std::string& value);
  const std::vector<std::pair<std::string, std::string>>& notes() const {
    return notes_;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// Pins the calling thread to one allowed CPU after another, and restores
/// its original CPU set when destroyed. On a shared machine the cores run
/// at different speeds; a single-threaded loop that visits every core in
/// turn reports the same median wherever the OS would have placed it.
/// Threads the pinned thread creates inherit the pin, so create none
/// while pinned.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pin to the (k mod n)-th of the n CPUs the thread was allowed.
  void pin(std::size_t k);

 private:
  std::vector<int> cpus_;
  std::vector<unsigned char> saved_;  // the original cpu_set_t bytes
};

/// The benchmark's own span tracer: spans (name, start, end) are kept in
/// memory around calls into each layer and summarised when the run ends.
/// The spans are leaves: each wraps one call into the program. Disabled
/// tracers record nothing and cost one branch.
class Tracer {
 public:
  struct SpanRecord {
    const char* name;
    double start;
    double end;
  };
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int begin(const char* name);
  void end(int span);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Append another tracer's spans (one tracer per thread, merged after
  /// the threads are joined).
  void merge(const Tracer& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  /// Durations in microseconds of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_.end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Each workload fills `rec` with its end-to-end metrics (the generic
/// names listed in BENCHMARK.json plus its own named ones). With a
/// traced tracer it also records spans and its per-layer counters.
void run_replay(const Config& cfg, Tracer& tracer, Recorder& rec);
void run_serve(const Config& cfg, Tracer& tracer, Recorder& rec);
void run_turnaround(const Config& cfg, Tracer& tracer, Recorder& rec);

/// Per-layer probes: drive every layer's public functions in isolation
/// at fixed sizes and record nn.*, tensor.*, core.*, embed.*, ml.*,
/// sched.* and trace.* metrics, plus the computed cost model report.
void run_probes(const Config& cfg, Recorder& rec);

}  // namespace perfbench
