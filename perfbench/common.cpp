#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double supported_tail(std::size_t samples) {
  for (const double q : {0.99, 0.95, 0.9})
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) return q;
  return 0.5;
}

std::string join_ints(const std::vector<double>& xs) {
  std::string out;
  for (const double x : xs) {
    if (!out.empty()) out.push_back(',');
    out.append(std::to_string(std::llround(x)));
  }
  return out;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  return 0.0;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void Recorder::set(const std::string& name, double value,
                   const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Recorder::check(bool ok, const std::string& what) {
  op(ok);
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
}

void Recorder::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  const auto* bytes = reinterpret_cast<const unsigned char*>(&set);
  saved_.assign(bytes, bytes + sizeof set);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
}

CpuRotation::~CpuRotation() {
  if (saved_.size() != sizeof(cpu_set_t)) return;
  cpu_set_t set;
  std::memcpy(&set, saved_.data(), sizeof set);
  sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::pin(std::size_t k) {
  if (cpus_.empty()) return;  // affinity unavailable: leave placement be
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[k % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

int Tracer::begin(const char* name) {
  spans_.push_back({name, now_s(), 0.0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].end = now_s();
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (name == s.name) out.push_back((s.end - s.start) * 1e6);
  return out;
}

}  // namespace perfbench
