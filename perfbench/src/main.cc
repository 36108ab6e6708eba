// perfbench: the repository benchmark's executable. Run it through
// perfbench/run.py, which builds it and passes these flags:
//
//   perfbench --workload <serve_miss|serve_hit|query_shapley> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--trace-out <path>]
//
// The last line of standard output is the raw result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: value}}
// with every metric the run computed; run.py picks the end-to-end
// (--trace 0) or per-layer (--trace 1) group named in BENCHMARK.json and
// attaches the units. The line before it records the environment, the
// sample count behind each timing, and the digest of the run's outputs.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "xai/core/simd.h"
#include "xai/core/telemetry.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_miss|serve_hit|query_shapley> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--trace-out <path>]\n",
               why);
  return 2;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = true;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      options.trace = v == "1";
      have_trace = true;
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || options.workload.empty())
    return Usage("--workload, --seed, --seconds and --trace are required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  const char* simd_env = std::getenv("XAI_SIMD");
  if (simd_env != nullptr && simd_env[0] != '\0') {
    std::fprintf(stderr,
                 "perfbench: XAI_SIMD=%s forces a SIMD tier; unset it so the "
                 "benchmark measures the tier the library picks\n",
                 simd_env);
    return 2;
  }
  options.nproc = std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));

  SpanLog spans(options.trace);
  RunResult result;
  if (options.workload == "serve_miss") {
    result = RunServe(options, /*hit_workload=*/false, &spans);
  } else if (options.workload == "serve_hit") {
    result = RunServe(options, /*hit_workload=*/true, &spans);
  } else if (options.workload == "query_shapley") {
    result = RunQuery(options, &spans);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  xai::telemetry::SetEnabled(false);
  if (options.trace && !options.trace_out.empty() &&
      !spans.Write(options.trace_out))
    result.Fail("cannot write spans to " + options.trace_out);

  for (const std::string& why : result.check_failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  if (options.trace) {
    // The per-layer table: each layer's self time per op and its share of
    // op time.
    std::printf("%-12s %12s %8s\n", "layer", "self ms/op", "share");
    for (const char* layer :
         {"serve_async", "serve", "explain", "relational", "dbx"}) {
      const std::string name = layer;
      auto self = result.metrics.find(name + ".self_ms");
      auto share = result.metrics.find(name + ".share");
      if (self == result.metrics.end() || share == result.metrics.end())
        continue;
      std::printf("%-12s %12.4f %8.3f\n", layer, self->second, share->second);
    }
  }

  // Environment, sample counts and output digest.
  std::string env = "{\"env\": {";
  env += "\"workload\": " + Quote(options.workload);
  env += ", \"seed\": " + std::to_string(options.seed);
  env += ", \"seconds\": " + Number(options.seconds);
  env += ", \"trace\": " + std::to_string(options.trace ? 1 : 0);
  env += ", \"smoke\": " + std::to_string(options.smoke ? 1 : 0);
  env += ", \"nproc\": " + std::to_string(options.nproc);
  env += ", \"simd\": " + Quote(xai::simd::BackendName(xai::simd::Active()));
  env += ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  env += ", \"telemetry_compiled\": " + std::to_string(XAI_TELEMETRY);
  for (const auto& [key, value] : result.env)
    env += ", " + Quote(key) + ": " + Quote(value);
  env += ", \"host_ref_us\": " + Number(Median(result.host_ref_us));
  env += "}, \"samples\": {";
  bool first = true;
  for (const auto& [key, n] : result.samples) {
    env += (first ? "" : ", ") + Quote(key) + ": " + std::to_string(n);
    first = false;
  }
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(result.digest));
  env += "}, \"digest\": " + Quote(digest);
  env += ", \"spans\": " + std::to_string(spans.size());
  env += ", \"dropped_spans\": " + std::to_string(spans.dropped());
  env += ", \"checks_failed\": " +
         std::to_string(result.check_failures.size()) + "}";
  std::printf("%s\n", env.c_str());
  if (result.attempted == 0) {
    std::fprintf(stderr, "perfbench: no op ran\n");
    return 1;
  }

  const bool correct = result.checks_ok && result.failed == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  first = true;
  for (const auto& [name, value] : result.metrics) {
    out += (first ? "" : ", ") + Quote(name) + ": " + Number(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}
