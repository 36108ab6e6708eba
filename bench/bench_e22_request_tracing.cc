// E22 — Request-scoped causal tracing, provenance coverage, and SLO
// accounting on the serving path (§3, explanations as query results).
//
// Paper claim: production explanation serving needs the same observability
// discipline as any query engine — per-request provenance ("why was THIS
// request slow / degraded / a cache miss?"), causal traces that survive
// sampling for exactly the requests that matter, and per-tenant SLO
// standings.
// Expected shape: >= 99.9% of responses carry a complete provenance record
// under e19-style mixed traffic (the funnel design makes it structural);
// tracing costs < 2% wall-clock vs telemetry::SetEnabled(false); at a 0.0
// head-sampling rate every deadline-missed / degraded / error request still
// lands its root span in the trace (tail retention); payloads stay
// bit-identical across thread counts with tracing on.
//
// Emits BENCH_e22.json (+ Chrome trace with causal ids) and
// BENCH_e22.provenance.jsonl (schema-validated in CI by
// tools/validate_bench_report.py --provenance); `--smoke` shrinks the
// workload for CI.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "xai/core/timer.h"
#include "xai/core/trace.h"
#include "xai/data/synthetic.h"
#include "xai/model/gbdt.h"
#include "xai/model/logistic_regression.h"
#include "xai/model/serialization.h"
#include "xai/serve/explain_server.h"
#include "xai/serve/provenance.h"

namespace xai {
namespace {

using serve::ExplainRequest;
using serve::ExplainServer;
using serve::ExplainerKind;
using serve::ExplanationProvenance;
using serve::FidelityTier;

struct Workbench {
  Dataset background;
  std::string gbdt_text;
  std::string wide_text;
  Dataset wide_data;
  std::vector<Vector> instances;

  explicit Workbench(bool smoke)
      : background(MakeLoans(smoke ? 32 : 64, 4)),
        wide_data(MakeLoans(1, 1)) {  // Placeholder, replaced below.
    Dataset train = MakeLoans(300, 3);
    GbdtModel::Config config;
    config.n_trees = 10;
    gbdt_text = SerializeModel(GbdtModel::Train(train, config).ValueOrDie());
    for (int i = 0; i < 8; ++i) instances.push_back(train.Row(i));

    auto [wide, gt] = MakeLogisticData(300, 12, 5);
    (void)gt;
    wide_data = std::move(wide);
    wide_text = SerializeModel(
        LogisticRegressionModel::Train(wide_data).ValueOrDie());
  }

  void Register(ExplainServer* server) const {
    server->registry().Register("loans", gbdt_text, background).ValueOrDie();
    Dataset wide_background(wide_data.schema(),
                            Matrix(wide_data.x()), wide_data.y());
    server->registry()
        .Register("wide", wide_text, wide_background)
        .ValueOrDie();
  }
};

// E19-style mixed traffic — repeated instances (cache hits), concurrent
// clients on overlapping keys (coalescing), deadline-bound degraded
// requests, and a sprinkle of errors — with every response's provenance
// record captured. Coverage = fraction of responses whose record is
// complete with a nonzero trace id; the serving path funnels every exit
// through one finalizer, so anything below 1.0 is a lost-provenance bug.
void RunProvenanceCoverage(const Workbench& bench, bool smoke,
                           bench::RunReport* report) {
  bench::Section("provenance coverage under mixed traffic");
  ExplainServer server;
  bench.Register(&server);

  static const char* kTenants[] = {"alpha", "beta", "gamma"};
  std::mutex mu;
  std::vector<ExplanationProvenance> records;
  std::atomic<int> errors{0};
  auto keep = [&](const serve::ExplainResponse& response) {
    std::lock_guard<std::mutex> lock(mu);
    records.push_back(response.provenance);
  };

  // Repeated-instance traffic: passes 2+ are cache hits.
  const int kPasses = smoke ? 3 : 6;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const Vector& instance : bench.instances) {
      ExplainRequest request;
      request.model = "loans";
      request.instance = instance;
      request.kind = ExplainerKind::kKernelShap;
      request.fidelity = FidelityTier::kReduced;
      request.tenant = kTenants[0];
      keep(server.Explain(request).ValueOrDie());
    }
  }

  // Concurrent clients on a small instance set: coalescing in flight.
  const int kClients = smoke ? 4 : 8;
  const int kPerClient = smoke ? 16 : 64;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kPerClient; ++i) {
          ExplainRequest request;
          request.model = "loans";
          request.instance =
              bench.instances[(c + i) % bench.instances.size()];
          request.kind = ExplainerKind::kSamplingShapley;
          request.fidelity = FidelityTier::kMinimal;
          request.tenant = kTenants[c % 3];
          auto result = server.Explain(request);
          if (result.ok())
            keep(result.ValueOrDie());
          else
            ++errors;
        }
      });
    }
    for (auto& t : clients) t.join();
  }

  // Deadline-bound traffic on the wide model: degraded tiers, some misses.
  const int kDeadlineRequests = smoke ? 16 : 64;
  for (int i = 0; i < kDeadlineRequests; ++i) {
    ExplainRequest request;
    request.model = "wide";
    request.instance = bench.wide_data.Row(i % 50);
    request.kind = ExplainerKind::kKernelShap;
    request.fidelity = FidelityTier::kHigh;
    request.deadline_ms = 50.0;
    request.use_cache = false;
    request.tenant = kTenants[i % 3];
    auto result = server.Explain(request);
    if (result.ok())
      keep(result.ValueOrDie());
    else
      ++errors;
  }

  // Error traffic: unknown model — no response, but SLO-accounted.
  for (int i = 0; i < 4; ++i) {
    ExplainRequest request;
    request.model = "no-such-model";
    request.instance = bench.instances[0];
    request.kind = ExplainerKind::kTreeShap;
    request.tenant = kTenants[2];
    if (!server.Explain(request).ok()) ++errors;
  }

  int64_t complete = 0, cache_hits = 0, coalesced = 0, degraded = 0;
  for (const auto& p : records) {
    if (p.complete && p.trace_id != 0) ++complete;
    if (p.cache_hit) ++cache_hits;
    if (p.coalesced) ++coalesced;
    if (p.degraded) ++degraded;
  }
  const double coverage =
      records.empty()
          ? 0.0
          : static_cast<double>(complete) / static_cast<double>(records.size());
  std::printf("  %zu responses: %lld complete provenance (coverage %.4f, "
              "target >= 0.999)\n",
              records.size(), static_cast<long long>(complete), coverage);
  std::printf("  mix: %lld cache hits, %lld coalesced, %lld degraded, %d "
              "errors\n",
              static_cast<long long>(cache_hits),
              static_cast<long long>(coalesced),
              static_cast<long long>(degraded), errors.load());

  const char* jsonl_path = "BENCH_e22.provenance.jsonl";
  {
    std::ofstream os(jsonl_path);
    for (const auto& p : records) serve::WriteProvenanceJsonl(os, p);
  }
  std::printf("  provenance records: %s\n", jsonl_path);

  // Per-tenant SLO standings out of the same traffic.
  for (const auto& s : server.slo().Snapshot())
    std::printf("    slo %-6s/%-14s req=%-4lld miss=%-3lld degraded=%-3lld "
                "err=%-2lld p99=%.2f ms budget(deadline)=%.2f\n",
                s.tenant.c_str(), s.model.c_str(),
                static_cast<long long>(s.requests),
                static_cast<long long>(s.deadline_misses),
                static_cast<long long>(s.degraded),
                static_cast<long long>(s.errors), s.latency_p99_ms,
                s.deadline_budget_used);

  const std::string prom =
      server.MetricsSnapshot(ExplainServer::MetricsFormat::kPrometheus);
  const std::string jsonl =
      server.MetricsSnapshot(ExplainServer::MetricsFormat::kJsonl);
  std::printf("  metrics export: %zu bytes prometheus, %zu bytes jsonl\n",
              prom.size(), jsonl.size());

  report->Metric("provenance_records", static_cast<double>(records.size()));
  report->Metric("provenance_coverage", coverage);
  report->Metric("provenance_coverage_ok", coverage >= 0.999 ? 1.0 : 0.0);
  report->Metric("mixed_cache_hits", static_cast<double>(cache_hits));
  report->Metric("mixed_coalesced", static_cast<double>(coalesced));
  report->Metric("mixed_degraded", static_cast<double>(degraded));
  report->Metric("mixed_errors", errors.load());
  report->Metric("slo_cells",
                 static_cast<double>(server.slo().Snapshot().size()));
  report->Metric("metrics_prometheus_bytes",
                 static_cast<double>(prom.size()));
  report->Metric("metrics_jsonl_bytes", static_cast<double>(jsonl.size()));
}

// Tracing tax: the same uncached workload with telemetry runtime-disabled
// vs fully on (sample rate 1.0). Best-of-k wall clock on each side; the
// budget that makes default-on tracing defensible is < 2%.
void RunTracingOverhead(const Workbench& bench, bool smoke,
                        bench::RunReport* report) {
  bench::Section("tracing overhead (SetEnabled(false) vs tracing on)");
#if !XAI_TELEMETRY
  // Both sides of the A/B compile to the same code here; any delta would
  // be pure run-to-run noise presented as a measurement.
  (void)bench;
  (void)smoke;
  (void)report;
  std::printf("  skipped: span recording compiled out (XAI_TELEMETRY=0)\n");
  return;
#else
  // Production-shaped requests (kStandard KernelSHAP, uncached): per-request
  // compute in the milliseconds, so the measured tax is the event-append
  // cost against real work, not against an empty loop.
  const int kRequests = smoke ? 12 : 48;
  const int kReps = smoke ? 3 : 5;

  // One server for every rep. Its batch worker allocates its trace buffer
  // on its first traced span — a one-time cost per thread that a
  // long-lived server never pays per request — so a traced warm-up request
  // takes it before anything is timed.
  ExplainServer server;
  bench.Register(&server);
  auto run = [&](int requests) {
    WallTimer timer;
    for (int i = 0; i < requests; ++i) {
      ExplainRequest request;
      request.model = "loans";
      request.instance = bench.instances[i % bench.instances.size()];
      request.kind = ExplainerKind::kKernelShap;
      request.fidelity = FidelityTier::kStandard;
      request.use_cache = false;
      (void)server.Explain(request).ValueOrDie();
    }
    return timer.Seconds();
  };
  telemetry::SetEnabled(true);
  telemetry::SetTraceSampleRate(1.0);
  run(1);

  auto best_of = [&](bool tracing_on) {
    telemetry::SetEnabled(tracing_on);
    if (tracing_on) telemetry::SetTraceSampleRate(1.0);
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      telemetry::internal::ClearTraceEvents();  // Fresh buffers per rep.
      const double seconds = run(kRequests);
      if (rep == 0 || seconds < best) best = seconds;
    }
    return best;
  };

  const double off = best_of(false);
  const double on = best_of(true);
  telemetry::SetEnabled(true);
  const double overhead_pct = off > 0 ? (on - off) / off * 100.0 : 0.0;
  std::printf("  %d uncached requests: off %8.2f ms, on %8.2f ms, overhead "
              "%+.2f%% (budget < 2%%)\n",
              kRequests, off * 1e3, on * 1e3, overhead_pct);
  report->Metric("tracing_off_ms", off * 1e3);
  report->Metric("tracing_on_ms", on * 1e3);
  report->Metric("tracing_overhead_pct", overhead_pct);
  report->Metric("tracing_overhead_ok", overhead_pct < 2.0 ? 1.0 : 0.0);
#endif  // XAI_TELEMETRY
}

// Tail retention: at a 0.0 head-sampling rate nothing records span events —
// except the root spans of deadline-missed / degraded / error requests,
// which the serving layer force-retains. Every such request must be
// findable in the trace.
void RunTailRetention(const Workbench& bench, bool smoke,
                      bench::RunReport* report) {
  bench::Section("tail retention at head-sampling rate 0.0");
#if !XAI_TELEMETRY
  // Force-retention rides on span recording; with it compiled out there is
  // nothing to retain (and nothing to measure) — the telemetry-off CI job
  // instead asserts the trace export is empty.
  (void)bench;
  (void)smoke;
  (void)report;
  std::printf("  skipped: span recording compiled out (XAI_TELEMETRY=0)\n");
  return;
#else
  ExplainServer server;
  bench.Register(&server);

  telemetry::SetTraceSampleRate(0.0);
  telemetry::internal::ClearTraceEvents();

  const int kMissed = smoke ? 16 : 48;
  for (int i = 0; i < kMissed; ++i) {
    ExplainRequest request;
    request.model = "loans";
    request.instance = bench.instances[i % bench.instances.size()];
    request.kind = ExplainerKind::kKernelShap;
    request.fidelity = FidelityTier::kStandard;
    request.deadline_ms = 1e-3;  // Unmeetable: degrades and still misses.
    request.use_cache = false;
    (void)server.Explain(request).ValueOrDie();
  }
  const int kErrors = 4;
  for (int i = 0; i < kErrors; ++i) {
    ExplainRequest request;
    request.model = "no-such-model";
    request.instance = bench.instances[0];
    request.kind = ExplainerKind::kTreeShap;
    (void)server.Explain(request);
  }

  std::vector<telemetry::TraceEvent> events;
  telemetry::internal::CollectTraceEvents(&events);
  int64_t roots = 0, error_roots = 0;
  for (const auto& e : events) {
    if (std::string(e.name) == "serve/request") ++roots;
    if (std::string(e.name) == "serve/request_error") ++error_roots;
  }
  telemetry::SetTraceSampleRate(1.0);

  const bool retained_all = roots >= kMissed && error_roots >= kErrors;
  std::printf("  %d missed/degraded + %d error requests at sample rate 0: "
              "%lld root spans + %lld error spans retained — %s\n",
              kMissed, kErrors, static_cast<long long>(roots),
              static_cast<long long>(error_roots),
              retained_all ? "complete" : "INCOMPLETE");
  const telemetry::TraceStats stats = telemetry::internal::GetTraceStats();
  std::printf("  trace buffers: %lld buffered, %lld dropped, %lld retained-"
              "dropped\n",
              static_cast<long long>(stats.buffered_events),
              static_cast<long long>(stats.dropped_events),
              static_cast<long long>(stats.retained_dropped));
  report->Metric("tail_missed_requests", kMissed);
  report->Metric("tail_retained_roots", static_cast<double>(roots));
  report->Metric("tail_retained_error_roots",
                 static_cast<double>(error_roots));
  report->Metric("tail_retention_ok", retained_all ? 1.0 : 0.0);
#endif  // XAI_TELEMETRY
}

// The acceptance gate carried over from e19: tracing on must not perturb
// payloads — bit-identical responses at 1, 4, and 8 threads.
void RunDeterminism(const Workbench& bench, bench::RunReport* report) {
  bench::Section("payload determinism across thread counts, tracing on");
  telemetry::SetTraceSampleRate(1.0);
  const std::vector<ExplainerKind> kinds = {
      ExplainerKind::kTreeShap, ExplainerKind::kKernelShap,
      ExplainerKind::kSamplingShapley, ExplainerKind::kLime};

  bool identical = true;
  std::map<ExplainerKind, uint64_t> reference;
  for (int threads : {1, 4, 8}) {
    SetNumThreads(threads);
    ExplainServer server;
    bench.Register(&server);
    for (ExplainerKind kind : kinds) {
      ExplainRequest request;
      request.model = "loans";
      request.instance = bench.instances[0];
      request.kind = kind;
      request.fidelity = FidelityTier::kReduced;
      const uint64_t hash =
          serve::PayloadHash(server.Explain(request).ValueOrDie());
      auto [it, inserted] = reference.emplace(kind, hash);
      if (it->second != hash) {
        identical = false;
        std::printf("  MISMATCH: %s differs at %d threads\n",
                    serve::ExplainerKindName(kind), threads);
      }
    }
  }
  std::printf("  responses bit-identical across {1, 4, 8} threads: %s\n",
              identical ? "yes" : "NO");
  report->Metric("determinism_bit_identical", identical ? 1.0 : 0.0);
}

}  // namespace
}  // namespace xai

int main(int argc, char** argv) {
  const bool smoke = xai::bench::SmokeFlag(argc, argv);
  const int threads = xai::bench::ThreadsFlag(argc, argv);
  xai::SetNumThreads(threads);

  xai::bench::Banner(
      "E22 — request tracing, provenance coverage, SLO accounting",
      "serving-side observability: causal traces + per-request provenance",
      "e19-style mixed traffic (cache hits, coalescing, degradation, "
      "errors) with tracing on; overhead, tail retention, and determinism "
      "gates");

  xai::bench::RunReport report(
      "e22", "serving-side observability: causal traces + provenance");
  xai::Workbench bench(smoke);
  xai::RunProvenanceCoverage(bench, smoke, &report);
  xai::RunTracingOverhead(bench, smoke, &report);
  xai::RunTailRetention(bench, smoke, &report);
  xai::RunDeterminism(bench, &report);

  report.Note("smoke", smoke ? "true" : "false");
  report.Note("trace_sample_rate_env",
              std::getenv("XAI_TRACE_SAMPLE") ? std::getenv("XAI_TRACE_SAMPLE")
                                              : "(unset)");
  report.Write();
  xai::bench::Footer();
  return 0;
}
