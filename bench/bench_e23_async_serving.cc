// E23 — Async multi-tenant serving front end: open-loop admission under
// Zipfian load, interactive explanation sessions, and wire-level
// determinism (§3, explanations as query results).
//
// Paper claim: interactive, multi-tenant explanation serving needs a
// database-style front end — admission control that sheds load *before*
// compute is spent, a compact wire format whose cache fast path never
// deserializes the payload, and session-scoped dialogue state so what-if
// follow-ups cost a fraction of a cold query.
// Expected shape: >= 10k req/s synthetic (virtual-time) arrival through
// the admission path with a bounded, deterministic shed rate; zero torn
// responses (every frame's embedded payload hash matches a recomputation
// over the decoded payload); session follow-ups >= 2x faster than the
// cold turn; wire payloads bit-identical across {1, 4, 8} compute
// threads.
//
// Emits BENCH_e23.json and BENCH_e23.provenance.jsonl (completed turns
// plus typed shed records, schema-validated in CI by
// tools/validate_bench_report.py --e23 --provenance); `--smoke` shrinks
// the workload for CI.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "xai/core/rng.h"
#include "xai/core/timer.h"
#include "xai/data/synthetic.h"
#include "xai/model/gbdt.h"
#include "xai/model/serialization.h"
#include "xai/serve/async/admission.h"
#include "xai/serve/async/event_loop.h"
#include "xai/serve/async/frontend.h"
#include "xai/serve/async/wire.h"
#include "xai/serve/explain_server.h"
#include "xai/serve/provenance.h"

namespace xai {
namespace {

using serve::ExplainRequest;
using serve::ExplainServer;
using serve::ExplainerKind;
using serve::ExplanationProvenance;
using serve::FidelityTier;
using serve::async::AsyncFrontEnd;
using serve::async::DecodeError;
using serve::async::DecodeResponse;
using serve::async::EncodeRequest;
using serve::async::FrameFuture;
using serve::async::FrameType;
using serve::async::PeekFrameType;
using serve::async::VirtualClock;
using serve::async::WireResponse;

struct Workbench {
  Dataset background;
  std::string gbdt_text;
  std::vector<Vector> instances;

  explicit Workbench(bool smoke) : background(MakeLoans(smoke ? 24 : 48, 4)) {
    Dataset train = MakeLoans(300, 3);
    GbdtModel::Config config;
    config.n_trees = 5;
    gbdt_text = SerializeModel(GbdtModel::Train(train, config).ValueOrDie());
    for (int i = 0; i < 8; ++i) instances.push_back(train.Row(i));
  }

  void Register(ExplainServer* server) const {
    server->registry().Register("loans", gbdt_text, background).ValueOrDie();
  }
};

// Open-loop arrivals on a virtual clock: N requests at a fixed synthetic
// rate, tenants and instances drawn from Zipf-shaped weights. Admission is
// a pure function of (tenant state, virtual arrival time), so the
// admit/shed split is bit-reproducible run to run — the bucket gate does
// the shedding (the pending bound is disabled: completions happen in real
// time and would make the split machine-dependent). Every completed frame
// is checked for tearing against its embedded payload hash.
void RunOpenLoopAdmission(const Workbench& bench, bool smoke,
                          bench::RunReport* report,
                          std::vector<ExplanationProvenance>* provenance) {
  bench::Section("open-loop Zipfian load through admission (virtual time)");
  const int kArrivals = smoke ? 4000 : 20000;
  // The batcher queue must hold every admitted request at once: arrivals
  // are submitted in a virtual-time burst, so a smaller queue would add
  // machine-dependent try-enqueue sheds on top of the deterministic
  // token-bucket split.
  ExplainServer::Config server_config;
  server_config.batcher.max_queue = kArrivals;
  ExplainServer server(server_config);
  bench.Register(&server);

  static const char* kTenants[] = {"alpha", "beta",    "gamma",
                                   "delta", "epsilon", "zeta"};
  constexpr int kNumTenants = 6;
  const double kArrivalRate = 20000.0;  // req/s of virtual time.
  const int64_t kGapNs = static_cast<int64_t>(1e9 / kArrivalRate);

  VirtualClock clock;
  AsyncFrontEnd::Config config;
  config.clock = &clock;
  config.admission.tokens_per_sec = 3000.0;
  config.admission.burst = 150.0;
  config.admission.max_pending_per_tenant = 0;  // See function comment.
  config.max_shed_records = static_cast<size_t>(kArrivals);
  AsyncFrontEnd frontend(&server, config);

  // Zipf weights 1/rank over tenants, instances, and explainer kinds.
  auto zipf = [](int n) {
    std::vector<double> w(n);
    for (int i = 0; i < n; ++i) w[i] = 1.0 / (i + 1);
    return w;
  };
  const std::vector<double> tenant_w = zipf(kNumTenants);
  const std::vector<double> instance_w = zipf(8);
  const ExplainerKind kinds[] = {ExplainerKind::kTreeShap,
                                 ExplainerKind::kKernelShap,
                                 ExplainerKind::kLime};
  const std::vector<double> kind_w = zipf(3);

  Rng rng(2023);
  std::vector<FrameFuture> futures;
  futures.reserve(kArrivals);
  WallTimer timer;
  for (int i = 0; i < kArrivals; ++i) {
    clock.AdvanceTo(static_cast<int64_t>(i) * kGapNs);
    ExplainRequest request;
    request.model = "loans";
    request.instance = bench.instances[rng.Categorical(instance_w)];
    request.kind = kinds[rng.Categorical(kind_w)];
    request.fidelity = FidelityTier::kReduced;
    request.tenant = kTenants[rng.Categorical(tenant_w)];
    request.trace.trace_id = static_cast<uint64_t>(i) + 1;
    futures.push_back(frontend.SubmitWire(EncodeRequest(request)));
  }
  frontend.Drain();
  const double wall_s = timer.Seconds();

  int64_t completed = 0, shed = 0, torn = 0, errors = 0;
  for (FrameFuture& future : futures) {
    const std::string& frame = future.Get();
    const FrameType type = PeekFrameType(frame).ValueOrDie();
    if (type == FrameType::kResponse) {
      const WireResponse wire = DecodeResponse(frame).ValueOrDie();
      if (serve::PayloadHash(wire.response) != wire.payload_hash) ++torn;
      ++completed;
    } else {
      const auto error = DecodeError(frame).ValueOrDie();
      if (error.code == StatusCode::kOverloaded)
        ++shed;
      else
        ++errors;
    }
  }
  const double virtual_span_s =
      static_cast<double>(kArrivals) * kGapNs / 1e9;
  const double shed_rate =
      static_cast<double>(shed) / static_cast<double>(kArrivals);
  const bool shed_bounded = shed > 0 && shed_rate < 0.6;

  std::printf("  %d arrivals over %.2f s virtual (%.0f req/s synthetic), "
              "wall %.2f s (%.0f req/s delivered)\n",
              kArrivals, virtual_span_s, kArrivals / virtual_span_s, wall_s,
              wall_s > 0 ? completed / wall_s : 0.0);
  std::printf("  %lld completed, %lld shed (rate %.3f, bounded=%s), %lld "
              "torn (must be 0), %lld errors\n",
              static_cast<long long>(completed), static_cast<long long>(shed),
              shed_rate, shed_bounded ? "yes" : "NO",
              static_cast<long long>(torn), static_cast<long long>(errors));
  for (const auto& [tenant, stats] : frontend.admission().Snapshot())
    std::printf("    tenant %-8s admitted=%-6lld shed=%-6lld pending=%d\n",
                tenant.c_str(), static_cast<long long>(stats.admitted),
                static_cast<long long>(stats.shed_rate_limited +
                                       stats.shed_pending_full),
                stats.pending);

  for (ExplanationProvenance& record : frontend.DrainShedRecords())
    provenance->push_back(std::move(record));

  report->Metric("arrival_rate_rps", kArrivals / virtual_span_s);
  report->Metric("arrival_rate_ok",
                 kArrivals / virtual_span_s >= 10000.0 ? 1.0 : 0.0);
  report->Metric("delivered_rps", wall_s > 0 ? completed / wall_s : 0.0);
  report->Metric("open_loop_arrivals", kArrivals);
  report->Metric("open_loop_completed", static_cast<double>(completed));
  report->Metric("open_loop_shed", static_cast<double>(shed));
  report->Metric("shed_rate", shed_rate);
  report->Metric("shed_rate_bounded_ok", shed_bounded ? 1.0 : 0.0);
  report->Metric("torn_responses", static_cast<double>(torn));
  report->Metric("open_loop_errors", static_cast<double>(errors));
}

// Interactive dialogue: a cold KernelSHAP turn builds the session's
// coalition memo; what-if follow-ups (one feature nudged per turn) replay
// memoized coalitions and must land >= 2x faster than the cold turn while
// staying bit-identical to a from-scratch stateless run. A counterfactual
// turn then banks its candidates and a follow-up is answered from the
// pool by re-validation.
void RunSessionDialogue(const Workbench& bench, bool smoke,
                        bench::RunReport* report,
                        std::vector<ExplanationProvenance>* provenance) {
  bench::Section("session dialogue: cold turn vs what-if follow-ups");
  ExplainServer server;
  bench.Register(&server);
  AsyncFrontEnd frontend(&server);
  const uint64_t session = frontend.OpenSession().ValueOrDie();

  ExplainRequest base;
  base.model = "loans";
  base.instance = bench.instances[0];
  base.kind = ExplainerKind::kKernelShap;
  base.fidelity = FidelityTier::kStandard;
  base.seed = 17;
  base.tenant = "acme";
  base.trace.trace_id = 424242;  // Session turns keep the caller's trace.
  base.use_cache = false;  // Follow-ups differ, the memo does the caching.

  WallTimer cold_timer;
  const auto cold = frontend.Submit(base, session).Get().ValueOrDie();
  const double cold_ms = cold_timer.Seconds() * 1e3;
  provenance->push_back(cold.provenance);

  const int kFollowUps = smoke ? 6 : 24;
  double warm_total_ms = 0.0;
  int64_t warm_evals = 0;
  bool identical = true;
  for (int i = 0; i < kFollowUps; ++i) {
    ExplainRequest what_if = base;
    what_if.instance[i % what_if.instance.size()] += 0.5 * (1 + i / 8);
    WallTimer warm_timer;
    const auto warm = frontend.Submit(what_if, session).Get().ValueOrDie();
    warm_total_ms += warm_timer.Seconds() * 1e3;
    warm_evals += warm.provenance.used_evals;
    provenance->push_back(warm.provenance);
    // Memo trades cost, never content: bit-identical to stateless.
    const auto stateless = server.Explain(what_if).ValueOrDie();
    if (serve::PayloadHash(warm) != serve::PayloadHash(stateless))
      identical = false;
  }
  const double warm_ms = warm_total_ms / kFollowUps;
  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0.0;
  std::printf("  cold turn %8.2f ms (%lld evals); %d follow-ups avg %8.2f "
              "ms — %.2fx (target >= 2x), bit-identical=%s\n",
              cold_ms, static_cast<long long>(cold.provenance.used_evals),
              kFollowUps, warm_ms, speedup, identical ? "yes" : "NO");

  // Counterfactual pool: ask for the flip class so the search is
  // non-trivial, then re-ask — the follow-up re-validates pooled
  // candidates instead of re-running the random-walk search.
  ExplainRequest cf = base;
  cf.kind = ExplainerKind::kCounterfactual;
  cf.desired_class = 0;
  const auto cf_first = frontend.Submit(cf, session).Get().ValueOrDie();
  const auto cf_second = frontend.Submit(cf, session).Get().ValueOrDie();
  provenance->push_back(cf_first.provenance);
  provenance->push_back(cf_second.provenance);
  std::printf("  counterfactual pool: first turn %lld evals, follow-up "
              "%lld\n",
              static_cast<long long>(cf_first.provenance.used_evals),
              static_cast<long long>(cf_second.provenance.used_evals));
  // After the counterfactual turns, so the pooled follow-up counts as a
  // reuse answer.
  const auto stats = frontend.sessions().GetStats();
  std::printf("  memo: %lld hits / %lld misses, %lld reuse answers across "
              "the dialogue\n",
              static_cast<long long>(stats.memo_hits),
              static_cast<long long>(stats.memo_misses),
              static_cast<long long>(stats.reuse_answers));

  frontend.Drain();
  report->Metric("session_cold_ms", cold_ms);
  report->Metric("session_warm_ms", warm_ms);
  report->Metric("session_speedup", speedup);
  report->Metric("session_speedup_ok", speedup >= 2.0 ? 1.0 : 0.0);
  report->Metric("session_identical_to_stateless", identical ? 1.0 : 0.0);
  report->Metric("session_memo_hits", static_cast<double>(stats.memo_hits));
  report->Metric("session_reuse_answers",
                 static_cast<double>(stats.reuse_answers));
  report->Metric("cf_pool_first_evals",
                 static_cast<double>(cf_first.provenance.used_evals));
  report->Metric("cf_pool_followup_evals",
                 static_cast<double>(cf_second.provenance.used_evals));
}

// The acceptance gate carried over from e19/e22, now through the wire:
// full encode → admit → execute → encode round trips must produce
// bit-identical payloads at 1, 4, and 8 compute threads.
void RunDeterminism(const Workbench& bench, bench::RunReport* report) {
  bench::Section("wire payload determinism across compute thread counts");
  const ExplainerKind kinds[] = {
      ExplainerKind::kTreeShap, ExplainerKind::kKernelShap,
      ExplainerKind::kSamplingShapley, ExplainerKind::kLime};

  bool identical = true;
  std::map<ExplainerKind, uint64_t> reference;
  for (int threads : {1, 4, 8}) {
    SetNumThreads(threads);
    ExplainServer server;
    bench.Register(&server);
    AsyncFrontEnd frontend(&server);
    for (ExplainerKind kind : kinds) {
      ExplainRequest request;
      request.model = "loans";
      request.instance = bench.instances[1];
      request.kind = kind;
      request.fidelity = FidelityTier::kReduced;
      request.seed = 7;
      request.trace.trace_id = 99;
      FrameFuture future = frontend.SubmitWire(EncodeRequest(request));
      const WireResponse wire = DecodeResponse(future.Get()).ValueOrDie();
      auto [it, inserted] = reference.emplace(kind, wire.payload_hash);
      if (it->second != wire.payload_hash) {
        identical = false;
        std::printf("  MISMATCH: %s differs at %d threads\n",
                    serve::ExplainerKindName(kind), threads);
      }
    }
    frontend.Drain();
  }
  SetNumThreads(1);
  std::printf("  wire payloads bit-identical across {1, 4, 8} threads: %s\n",
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
      "E23 — async serving front end: admission, sessions, wire",
      "interactive multi-tenant explanation serving: shed before compute, "
      "cache without deserializing, answer follow-ups from session state",
      "open-loop Zipfian arrivals on a virtual clock through token-bucket "
      "admission; session what-if dialogue vs cold turns; wire round-trip "
      "determinism at 1/4/8 threads");

  xai::bench::RunReport report(
      "e23",
      "async front end: admission control, sessions, binary wire format");
  xai::Workbench bench(smoke);
  std::vector<xai::serve::ExplanationProvenance> provenance;
  xai::RunOpenLoopAdmission(bench, smoke, &report, &provenance);
  xai::RunSessionDialogue(bench, smoke, &report, &provenance);
  xai::RunDeterminism(bench, &report);

  const char* jsonl_path = "BENCH_e23.provenance.jsonl";
  {
    std::ofstream os(jsonl_path);
    for (const auto& p : provenance) xai::serve::WriteProvenanceJsonl(os, p);
  }
  std::printf("\nprovenance records (completed + shed): %s (%zu)\n",
              jsonl_path, provenance.size());

  report.Note("smoke", smoke ? "true" : "false");
  report.Write();
  xai::bench::Footer();
  return 0;
}
