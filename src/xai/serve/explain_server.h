#ifndef XAI_SERVE_EXPLAIN_SERVER_H_
#define XAI_SERVE_EXPLAIN_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "xai/core/status.h"
#include "xai/serve/batcher.h"
#include "xai/serve/degradation.h"
#include "xai/serve/explanation_cache.h"
#include "xai/serve/model_registry.h"
#include "xai/serve/request.h"
#include "xai/serve/slo.h"

namespace xai {

class CoalitionGame;

namespace serve {

namespace async {
class AdmissionController;
class SessionManager;
}  // namespace async

/// \brief The explanation serving layer: registry -> cache -> batcher ->
/// explainer, in that order per request.
///
/// The tutorial's data-management reading of XAI is that explanations are
/// query results: they can be cached (same model, same instance, same
/// config => same bytes), batched (concurrent requests share work), and
/// answered approximately under a latency budget (degradation ladder). This
/// class is that pipeline:
///
///   1. resolve the model name against the registry (snapshot + fingerprint);
///   2. price the requested fidelity against the deadline with the
///      deterministic DegradationPolicy, possibly picking a lower tier;
///   3. look up (fingerprint, instance hash, config hash) in the sharded
///      LRU cache — a hit skips all computation;
///   4. on a miss, enqueue on the batching scheduler, which coalesces
///      same-key requests and fans unique work out over the thread pool;
///   5. record the served tier, planned cost, and wall-clock in the
///      response. Responses are bit-identical for a fixed request at any
///      thread count; only `latency_ms` / `deadline_met` / `cache_hit` /
///      `provenance` vary (and PayloadHash excludes them).
///
/// Every request runs that one pipeline (ExplainAsync; Explain blocks on
/// it) and ends in one completion funnel, whatever its outcome — cache
/// hit, executed miss, coalesced follower or error: latency from pipeline
/// entry, `serve/deadline_misses`, the provenance stamp, one SloTracker
/// entry and one root span.
///
/// Observability: every request gets a trace_id (caller-provided, or drawn
/// from a deterministic ContentHash64-seeded stream) and a root span; the
/// TraceContext rides the request through the cache, the batcher, the
/// explainer spans, and — via core/parallel's per-region context capture —
/// every chunk a ParallelFor fans out. Responses carry a full
/// ExplanationProvenance record, per-(tenant, model) standing accumulates
/// in the SloTracker, and MetricsSnapshot() renders both plus the registry
/// as Prometheus text or JSONL.
class ExplainServer {
 public:
  struct Config {
    ExplanationCache::Config cache;
    RequestBatcher::Config batcher;
    CostModel cost_model;
    SloTracker::Config slo;
    /// Seed of the server-assigned trace_id stream (ids are ContentHash64
    /// over a per-server sequence — deterministic for a fixed seed,
    /// distinct across servers with different seeds).
    uint64_t trace_seed = 0;
  };

  ExplainServer() : ExplainServer(Config()) {}
  explicit ExplainServer(const Config& config);

  /// Serves one request and waits for it: ExplainAsync's result, or the
  /// status it returned. NotFound for an unknown model name;
  /// InvalidArgument on a schema mismatch; OutOfRange when the deadline
  /// cannot fund the requested fidelity and the request forbids
  /// degradation; Overloaded when the batcher queue is full.
  Result<ExplainResponse> Explain(const ExplainRequest& request);

  /// \brief Wire-layer hooks for ExplainAsync: a precomputed instance hash
  /// and an optional deferred instance payload.
  ///
  /// The async front end probes the cache from a request frame's *header*
  /// — the instance vector stays encoded. `instance_hash` is the hash the
  /// frame carries (0 = compute from request.instance); `deferred_count`
  /// >= 0 promises the instance has that many features without decoding
  /// it, and `materialize` fills it in only when a cache miss makes the
  /// bytes necessary (returning InvalidArgument for a corrupt payload).
  struct AsyncHints {
    uint64_t instance_hash = 0;
    int64_t deferred_count = -1;
    std::function<Status(Vector*)> materialize;
  };

  /// The serving pipeline: trace id, admission, cache probe, deferred
  /// instance, batcher. Never blocks: cache hits invoke `done` inline on
  /// the calling thread; misses go through the batcher's try-enqueue
  /// (`done` then runs on the batch worker under the request's
  /// TraceContext). A non-OK return (NotFound / InvalidArgument /
  /// OutOfRange at admission, InvalidArgument from `materialize`,
  /// Overloaded from a full queue) means `done` will never run — the
  /// caller answers the client itself (e.g. converts Overloaded into a
  /// shed, which it also records: the server records nothing for it).
  Status ExplainAsync(ExplainRequest request, RequestBatcher::Callback done,
                      AsyncHints hints);
  Status ExplainAsync(ExplainRequest request, RequestBatcher::Callback done) {
    return ExplainAsync(std::move(request), std::move(done), AsyncHints());
  }

  ModelRegistry& registry() { return registry_; }
  const ModelRegistry& registry() const { return registry_; }
  ExplanationCache& cache() { return cache_; }
  const ExplanationCache& cache() const { return cache_; }
  const DegradationPolicy& policy() const { return policy_; }
  /// The batching scheduler every cache miss runs through. Never null.
  RequestBatcher* batcher() { return &batcher_; }

  SloTracker& slo() { return slo_; }
  const SloTracker& slo() const { return slo_; }

  /// The metrics export surface: the global telemetry registry (counters,
  /// span histograms) plus this server's per-tenant SLO standings — and,
  /// when an async front end attached its admission controller / session
  /// manager, per-tenant token/shed gauges and session reuse rates —
  /// rendered for scraping (Prometheus text exposition) or log shipping
  /// (JSONL).
  enum class MetricsFormat { kPrometheus, kJsonl };
  std::string MetricsSnapshot(MetricsFormat format) const;

  /// Registers the async front end's admission controller / session
  /// manager as metrics sources. Observers only — the server never calls
  /// into them on the serving path. Pass nullptr to detach; the attached
  /// object must outlive the server or be detached first.
  void AttachAdmission(const async::AdmissionController* admission) {
    admission_ = admission;
  }
  void AttachSessions(const async::SessionManager* sessions) {
    sessions_ = sessions;
  }

 private:
  /// Session turns share the pipeline entry, the provenance stamp, the
  /// completion funnel and the Shapley dispatch with the stateless
  /// pipeline.
  friend class async::SessionManager;

  /// Enters `job->request` into the pipeline: its start time (latency and
  /// the root span start here), the request counter, its trace id, and
  /// Admit. Every path, session turns included, starts here.
  Status Enter(BatchJob* job, const AsyncHints* hints) const;
  /// Fills in `job` from `job->request`: registry lookup, validation, tier
  /// choice, cache-key construction. `hints` (nullable) supplies the wire
  /// layer's precomputed instance hash and deferred-payload promise.
  Status Admit(BatchJob* job, const AsyncHints* hints) const;
  /// Runs the chosen plan. Called from pool workers via the batcher.
  Result<ExplainResponse> Execute(const BatchJob& job);
  /// The one completion funnel: latency, deadline verdict, provenance, SLO
  /// entry and root span. `batch` is null for requests that never reached
  /// the batcher (cache hits, pipeline errors); a computed session turn
  /// passes a one-job batch that never queued.
  void Finish(const BatchJob& job, const RequestBatcher::CompletionInfo* batch,
              Result<ExplainResponse>* result);

  /// Fills in request.trace when the caller left trace_id == 0 and stamps
  /// the head-sampling decision.
  void AssignTrace(ExplainRequest* request) const;
  /// A response to `job` before any explainer ran: the payload header and
  /// the request-scoped provenance.
  static ExplainResponse NewResponse(const BatchJob& job);
  /// The request-scoped provenance fields: who asked, for what, and the
  /// plan admission chose. Rewritten on every shared copy (cache hits,
  /// coalesced followers); the payload's producing-execution facts stay.
  static void StampProvenance(const BatchJob& job,
                              ExplanationProvenance* provenance);
  /// Runs the plan's Shapley-family algorithm on `game` (the entry's
  /// marginal game, or a session's memo around it) into the attribution.
  static Status ExplainShapley(const BatchJob& job, const CoalitionGame& game,
                               ExplainResponse* response);

  ModelRegistry registry_;
  ExplanationCache cache_;
  DegradationPolicy policy_;
  SloTracker slo_;
  const async::AdmissionController* admission_ = nullptr;
  const async::SessionManager* sessions_ = nullptr;
  uint64_t trace_stream_seed_ = 0;
  mutable std::atomic<uint64_t> trace_seq_{0};
  RequestBatcher batcher_;  // Last member: its worker stops first.
};

}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_EXPLAIN_SERVER_H_
