#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <thread>

#include "xai/core/telemetry.h"
#include "xai/core/trace.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double ReferenceKernelUs() {
  // A single random cycle through 64K slots, so every load depends on the
  // previous one.
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> order(1 << 16);
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    uint64_t state = 12345;
    for (size_t i = order.size() - 1; i > 0; --i) {
      state = Mix(state, i);
      std::swap(order[i], order[state % (i + 1)]);
    }
    std::vector<uint32_t> cycle(order.size());
    for (size_t i = 0; i < order.size(); ++i)
      cycle[order[i]] = order[(i + 1) % order.size()];
    return cycle;
  }();
  timespec t0{}, t1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
  uint32_t at = 0;
  for (int i = 0; i < 100000; ++i) at = next[at];
  double acc[8] = {};
  for (int i = 0; i < 100000; ++i)
    for (int k = 0; k < 8; ++k)
      acc[k] = acc[k] * 0.999999 + static_cast<double>(k + (at & 7));
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
  static volatile double sink;
  sink = acc[0] + acc[7];
  return static_cast<double>(t1.tv_sec - t0.tv_sec) * 1e6 +
         static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-3;
}

double HostScale(int threads, std::vector<double>* host_ref_us) {
  std::vector<double> runs;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> us(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&us, t] { us[t] = ReferenceKernelUs(); });
    for (std::thread& thread : pool) thread.join();
    runs.push_back(Median(us));
  }
  const double us = Median(runs);
  host_ref_us->push_back(us);
  return kReferenceUs / us;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void Reservoir::Add(double value) {
  ++seen_;
  if (values_.size() < kCapacity) {
    values_.push_back(value);
    return;
  }
  state_ = Mix(state_, static_cast<uint64_t>(seen_));
  const uint64_t slot = state_ % static_cast<uint64_t>(seen_);
  if (slot < kCapacity) values_[slot] = value;
}

void SetTracing(bool on) {
  xai::telemetry::SetEnabled(on);
  xai::telemetry::SetTraceSampleRate(on ? 1.0 : 0.0);
}

int64_t Counter(const std::map<std::string, int64_t>& snapshot,
                const char* name) {
  auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second;
}

uint64_t Mix(uint64_t seed, uint64_t index) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + index + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Digest::Add(uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::AddDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

uint64_t SpanLog::Record(const char* name, int64_t start_ns, int64_t end_ns,
                         uint64_t parent, uint64_t request, uint64_t id) {
  if (!enabled_) return 0;
  if (id == 0) id = NewId();
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return id;
  }
  spans_.push_back(Span{name, start_ns, end_ns, id, parent, request});
  return id;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_spans\":"
     << dropped_ << "},\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) os << ",";
    os << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
       << ",\"request\":" << s.request << "}}";
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
