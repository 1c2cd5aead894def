// PRIONN benchmark driver.
//
//   prionn_perfbench --workload replay|serve|turnaround --seed N
//                    --seconds S --trace 0|1 [--smoke]
//
// --trace 0 runs the workload untraced and prints its end-to-end metrics.
// --trace 1 runs it twice, untraced and then with the benchmark's span
// tracer on, reports the gap as the tracing overhead, runs the per-layer
// probes, and prints the per-layer metrics. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cmath>
#include <cstdio>
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

// The end-to-end metrics every workload prints (BENCHMARK.json
// "end_to_end"); the README's table says what each means per workload.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "throughput_per_s",
                                 "latency_p50_ms"};

std::string read_first_line_matching(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) return line;
      auto value = line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      return value;
    }
  return "unknown";
}

std::string read_file_trimmed(const char* path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s.empty() ? "unknown" : s;
}

void record_machine(Recorder& rec) {
  rec.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  rec.note("thread_pool",
           std::to_string(prionn::util::ThreadPool::global().size()));
  rec.note("cpu_model", read_first_line_matching("/proc/cpuinfo",
                                                  "model name"));
  rec.note("l2_cache",
           read_file_trimmed("/sys/devices/system/cpu/cpu0/cache/index2/size"));
  rec.note("build_type", PERFBENCH_BUILD_TYPE);
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at startup
  const char* commit = std::getenv("PERFBENCH_COMMIT");
  rec.note("commit", commit && *commit ? commit : "unknown");
}

void run_workload(const Config& cfg, Tracer& tracer, Recorder& rec) {
  if (cfg.workload == "replay")
    run_replay(cfg, tracer, rec);
  else if (cfg.workload == "serve")
    run_serve(cfg, tracer, rec);
  else if (cfg.workload == "turnaround")
    run_turnaround(cfg, tracer, rec);
  else
    throw std::invalid_argument("unknown workload: " + cfg.workload);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_report(const Config& cfg, const Recorder& rec, const char* pass) {
  std::printf("== prionn perfbench: workload=%s seed=%llu seconds=%g "
              "%s pass%s\n",
              cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds, pass,
              cfg.smoke ? " (smoke)" : "");
  for (const auto& [key, value] : rec.notes())
    std::printf("record %-34s %s\n", key.c_str(), value.c_str());
  for (const auto& [name, m] : rec.metrics())
    std::printf("metric %-44s %14.6g %-8s n=%zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  std::printf("ops attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(rec.attempted()),
              static_cast<unsigned long long>(rec.failed()),
              rec.correct() ? "true" : "false");
}

/// The JSON result line: the end-to-end metrics untraced, every metric
/// not produced by the untraced workload (the per-layer set) when traced.
void print_result(const Config& cfg, const Recorder& rec,
                  const Recorder& untraced) {
  std::ostringstream os;
  os << "{\"correct\": " << (rec.correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::uint64_t>(1, rec.attempted())
     << ", \"failed\": " << rec.failed() << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, const Metric& m) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (!cfg.trace) {
    for (const char* name : kEndToEnd) emit(name, rec.get(name));
  } else {
    for (const auto& [name, m] : rec.metrics())
      if (!untraced.has(name)) emit(name, m);
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

Config parse(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") cfg.workload = value();
    else if (arg == "--seed") cfg.seed = std::stoull(value());
    else if (arg == "--seconds") cfg.seconds = std::stod(value());
    else if (arg == "--trace") cfg.trace = std::stoi(value()) != 0;
    else if (arg == "--smoke") cfg.smoke = true;
    else throw std::invalid_argument("unknown argument: " + arg);
  }
  if (cfg.workload.empty()) throw std::invalid_argument("--workload missing");
  if (!(cfg.seconds > 0.0)) throw std::invalid_argument("--seconds <= 0");
  return cfg;
}

int main_impl(int argc, char** argv) {
  const Config cfg = parse(argc, argv);
  Recorder untraced;
  record_machine(untraced);
  untraced.note("held_out_seed", std::to_string(cfg.seed + 1000003));
  Tracer off(false);
  Config untraced_cfg = cfg;
  untraced_cfg.trace = false;
  run_workload(untraced_cfg, off, untraced);
  untraced.set("peak_rss_mb", peak_rss_mb(), "MB", 1);

  print_report(cfg, untraced, "untraced");
  if (!cfg.trace) {
    print_result(cfg, untraced, untraced);
    return 0;
  }

  // Traced pass: same workload and seed with spans on; then the probes.
  Recorder traced;
  Tracer on(true);
  run_workload(cfg, on, traced);
  const double base = untraced.get("throughput_per_s").value;
  const double with_spans = traced.get("throughput_per_s").value;
  traced.set("bench.tracing_overhead_frac",
             with_spans > 0.0 ? base / with_spans - 1.0 : 0.0, "ratio", 2);
  traced.set("bench.spans_recorded", static_cast<double>(on.spans().size()),
             "count", 1);
  if (cfg.workload != "serve") {
    // The serve layer is reached only by the serve workload; the other
    // workloads probe it with a short session so its counters exist.
    Config probe_cfg = cfg;
    probe_cfg.workload = "serve";
    probe_cfg.seconds = std::min(cfg.seconds, 4.0);
    Recorder serve_rec;
    Tracer serve_tracer(true);
    run_serve(probe_cfg, serve_tracer, serve_rec);
    for (const auto& [name, m] : serve_rec.metrics())
      if (name.rfind("serve.", 0) == 0)
        traced.set(name, m.value, m.unit, m.samples);
    traced.ops(serve_rec.attempted(), serve_rec.failed());
    if (!serve_rec.correct()) traced.check(false, "serve probe");
  }
  run_probes(cfg, traced);
  // Both passes' outputs count toward the checks.
  traced.ops(untraced.attempted(), untraced.failed());
  if (!untraced.correct()) traced.check(false, "untraced pass");
  print_report(cfg, traced, "traced");
  print_result(cfg, traced, untraced);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "prionn_perfbench: %s\n", e.what());
    return 2;
  }
}
