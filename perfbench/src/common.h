#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// Shared plumbing of the repository benchmark: options, clocks, order
/// statistics, output digests, the benchmark's own span log, and the
/// result a workload hands back to main().

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: library telemetry on, benchmark spans recorded, per-layer
  /// metrics reported instead of end-to-end ones.
  bool trace = false;
  /// Tiny sizes and fixed op counts (self-test).
  bool smoke = false;
  /// Where a traced run writes its spans at exit (empty: not written).
  std::string trace_out;
  int nproc = 1;
};

/// steady_clock nanoseconds.
int64_t NowNs();
/// CPU time of the whole process (every thread), seconds.
double ProcessCpuSeconds();
/// Peak resident set of the process, MiB.
double PeakRssMb();
/// Thread CPU time of a fixed reference kernel, microseconds: dependent
/// loads through a 256 KiB table, then eight independent floating-point
/// multiply-add chains; about 1 ms in all. It never calls the library, so
/// only the host moves it.
double ReferenceKernelUs();

/// The host speed the reference kernel is scaled to: it takes this long.
constexpr double kReferenceUs = 1000.0;

/// Runs the reference kernel on `threads` threads at once, three times, and
/// returns kReferenceUs over the median kernel time; records that median in
/// `host_ref_us`. A time measured right after, multiplied by the scale, is
/// what it would read on a host where the kernel takes kReferenceUs. The
/// bounded timings are scaled this way because the shared host's speed
/// moves by more than their bounds within minutes (README.md); the raw
/// readings are reported beside them. The workloads keep every CPU busy, so
/// the kernel runs on every CPU too and meets the host the way they do.
double HostScale(int threads, std::vector<double>* host_ref_us);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Library telemetry and tracing on or off, through the API (so the
/// XAI_TRACE_SAMPLE environment variable has no say).
void SetTracing(bool on);
/// A counter's value in a telemetry::Registry counter snapshot (0 if the
/// counter was never touched).
int64_t Counter(const std::map<std::string, int64_t>& snapshot,
                const char* name);

/// Seeded 64-bit stream splitter (SplitMix64 finalizer over seed and
/// index): independent per-op seeds from one workload seed.
uint64_t Mix(uint64_t seed, uint64_t index);

/// \brief Bounded uniform sample of a stream (reservoir sampling with a
/// fixed seed), so a run's memory does not grow with its op count.
class Reservoir {
 public:
  void Add(double value);
  const std::vector<double>& values() const { return values_; }
  int64_t seen() const { return seen_; }

 private:
  static constexpr size_t kCapacity = 1 << 16;
  std::vector<double> values_;
  int64_t seen_ = 0;
  uint64_t state_ = 0x853c49e6748fea9bull;
};

/// FNV-1a over 64-bit words: the digest of a run's outputs. Same seed,
/// same digest; the self-test checks both directions.
class Digest {
 public:
  void Add(uint64_t word);
  void AddDouble(double value);
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// One benchmark span: a timed call into a layer's public function.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  /// The op (request or query) the span belongs to.
  uint64_t request = 0;
};

/// \brief In-memory span log of the traced run, written at exit.
///
/// Only the thread that drives the workload records, so there is no
/// locking. The log is bounded; spans past the bound are counted, not
/// kept. Metrics never depend on the kept spans, only on the timings the
/// workloads collect alongside them.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  /// A fresh span id, for a parent recorded after its children.
  uint64_t NewId() { return next_id_++; }
  /// Records a finished span and returns its id (0 when disabled). `id` 0
  /// draws a fresh one.
  uint64_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                  uint64_t parent, uint64_t request, uint64_t id = 0);
  /// Chrome trace-event JSON ("X" events, ids in args).
  bool Write(const std::string& path) const;
  int64_t dropped() const { return dropped_; }
  size_t size() const { return spans_.size(); }

 private:
  static constexpr size_t kCapacity = 1 << 16;
  bool enabled_;
  uint64_t next_id_ = 1;
  int64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// What a workload run hands back to main().
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Workload-level checks beyond per-op failures (cache hit ratio,
  /// sheds, ...). False makes the result incorrect.
  bool checks_ok = true;
  std::vector<std::string> check_failures;
  /// Metric name -> value; run.py attaches the units from BENCHMARK.json.
  std::map<std::string, double> metrics;
  /// Sample count behind each timing, printed with the environment.
  std::map<std::string, int64_t> samples;
  /// Workload-specific environment (pool sizes, in-flight depth, ...).
  std::map<std::string, std::string> env;
  /// HostScale() reference times, one per scaled sample.
  std::vector<double> host_ref_us;
  uint64_t digest = 0;

  void Fail(const std::string& why) {
    checks_ok = false;
    check_failures.push_back(why);
  }
};

RunResult RunServe(const Options& options, bool hit_workload,
                   SpanLog* spans);
RunResult RunQuery(const Options& options, SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
