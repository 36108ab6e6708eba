#include "xai/serve/explain_server.h"

#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "xai/core/json.h"
#include "xai/core/rng.h"
#include "xai/core/simd.h"
#include "xai/core/telemetry.h"
#include "xai/core/timer.h"
#include "xai/core/trace.h"
#include "xai/explain/counterfactual/counterfactual.h"
#include "xai/explain/counterfactual/dice.h"
#include "xai/explain/lime.h"
#include "xai/explain/shapley/exact_shapley.h"
#include "xai/explain/shapley/kernel_shap.h"
#include "xai/explain/shapley/sampling_shapley.h"
#include "xai/explain/shapley/tree_shap.h"
#include "xai/explain/shapley/value_function.h"
#include "xai/model/serialization.h"
#include "xai/rules/anchors.h"
#include "xai/serve/async/admission.h"
#include "xai/serve/async/session.h"

namespace xai {
namespace serve {
namespace {

std::vector<std::string> FeatureNames(const Dataset& background) {
  std::vector<std::string> names;
  names.reserve(background.schema().features.size());
  for (const auto& feature : background.schema().features)
    names.push_back(feature.name);
  return names;
}

}  // namespace

ExplainServer::ExplainServer(const Config& config)
    : cache_(config.cache),
      policy_(config.cost_model),
      slo_(config.slo),
      trace_stream_seed_(
          Rng(ContentHash64("xai.serve/trace_ids") ^ config.trace_seed)
              .NextU64()),
      batcher_(
          config.batcher, [this](const BatchJob& job) { return Execute(job); },
          [this](const BatchJob& job,
                 const RequestBatcher::CompletionInfo& info,
                 Result<ExplainResponse>* result) {
            Finish(job, &info, result);
          }) {}

void ExplainServer::AssignTrace(ExplainRequest* request) const {
  if (request->trace.trace_id == 0) {
    // Deterministic id stream: ContentHash64 over a per-server sequence.
    // Reproducible for a fixed trace_seed, well-spread for sampling.
    const uint64_t seq = trace_seq_.fetch_add(1, std::memory_order_relaxed);
    uint64_t id = ContentHash64(&seq, sizeof(seq), trace_stream_seed_);
    if (id == 0) id = 1;  // 0 means "unassigned" everywhere.
    request->trace.trace_id = id;
  }
  request->trace.sampled = telemetry::SampleTrace(request->trace.trace_id);
  // The request's root span: children (serve/execute, explainer spans,
  // ParallelFor chunks) parent-link to it; the span event itself is emitted
  // at completion, covering admission -> response.
  request->trace.span_id = telemetry::NextSpanId();
}

Status ExplainServer::Enter(BatchJob* job, const AsyncHints* hints) const {
  job->start_ns = MonotonicNanos();
  XAI_COUNTER_INC("serve/requests");
  AssignTrace(&job->request);
  Status status = Admit(job, hints);
  if (status.ok() && job->degraded) XAI_COUNTER_INC("serve/degraded_requests");
  return status;
}

Status ExplainServer::Admit(BatchJob* job, const AsyncHints* hints) const {
  const ExplainRequest& request = job->request;
  job->entry = registry_.Find(request.model);
  if (job->entry == nullptr)
    return Status::NotFound("no registered model named " + request.model);
  const ModelEntry& entry = *job->entry;
  const int num_features = entry.num_features();
  // A deferred instance is schema-checked against the count its wire
  // header promised; the bytes themselves are only decoded on a cache
  // miss (and verified against the carried hash there).
  const int64_t instance_count =
      (hints != nullptr && hints->deferred_count >= 0)
          ? hints->deferred_count
          : static_cast<int64_t>(request.instance.size());
  if (instance_count != num_features)
    return Status::InvalidArgument(
        "instance has " + std::to_string(instance_count) +
        " features; model " + request.model + " expects " +
        std::to_string(num_features));

  const int background_rows = entry.background->num_rows();
  // Tree-based snapshots carry their compiled kernel; its node count prices
  // a TreeSHAP request in eval-equivalents (ignored for other kinds).
  const int64_t tree_nodes =
      entry.flat != nullptr ? entry.flat->num_nodes() : 0;
  job->plan = policy_.Choose(request.kind, request.fidelity, num_features,
                             background_rows, request.deadline_ms, tree_nodes);
  // The undegraded reference is what Choose picks with no deadline (the
  // requested tier clamped to the kind's natural top).
  const FidelityTier reference =
      policy_
          .Choose(request.kind, request.fidelity, num_features,
                  background_rows, /*deadline_ms=*/0.0, tree_nodes)
          .tier;
  job->degraded = job->plan.tier != reference;
  if (job->degraded && !request.allow_degradation)
    return Status::OutOfRange(
        "deadline of " + std::to_string(request.deadline_ms) +
        " ms cannot fund tier " + FidelityTierName(reference) +
        " and the request forbids degradation");

  job->coalescable = request.use_cache;
  job->key.model_fingerprint = entry.fingerprint;
  job->key.instance_hash = (hints != nullptr && hints->instance_hash != 0)
                               ? hints->instance_hash
                               : ContentHash64(request.instance);
  const uint64_t config_fields[] = {
      static_cast<uint64_t>(request.kind),
      static_cast<uint64_t>(job->plan.tier),
      request.seed,
      entry.background_fingerprint,
      static_cast<uint64_t>(static_cast<int64_t>(request.desired_class)),
      // Tenant scoping: on the deferred wire path the instance_hash is
      // client-supplied and a hit is served without materializing the
      // payload, so a guessed/replayed hash must only ever reach entries
      // the same tenant produced. Cross-tenant sharing is deliberately
      // given up for that isolation.
      ContentHash64(TenantOf(request.tenant)),
  };
  job->key.config_hash = ContentHash64(config_fields, sizeof(config_fields));
  return Status::OK();
}

Result<ExplainResponse> ExplainServer::Explain(const ExplainRequest& request) {
  // Shared with the callback: it may outlive this frame's wait by the few
  // instructions set_value takes after waking us.
  auto delivered = std::make_shared<std::promise<Result<ExplainResponse>>>();
  std::future<Result<ExplainResponse>> response = delivered->get_future();
  XAI_RETURN_NOT_OK(
      ExplainAsync(request, [delivered](Result<ExplainResponse> result) {
        delivered->set_value(std::move(result));
      }));
  return response.get();
}

Status ExplainServer::ExplainAsync(ExplainRequest request,
                                   RequestBatcher::Callback done,
                                   AsyncHints hints) {
  BatchJob job;
  job.request = std::move(request);
  Status status = Enter(&job, &hints);
  if (status.ok() && job.request.use_cache) {
    if (auto hit = cache_.Get(job.key)) {
      // The wire-format payoff: for a deferred instance this path never
      // materialized the feature vector at all.
      Result<ExplainResponse> response = *hit;
      response.ValueOrDie().cache_hit = true;
      Finish(job, /*batch=*/nullptr, &response);
      done(std::move(response));
      return Status::OK();
    }
  }
  if (status.ok() && hints.materialize != nullptr)
    status = hints.materialize(&job.request.instance);
  if (!status.ok()) {
    Result<ExplainResponse> failed = status;
    Finish(job, /*batch=*/nullptr, &failed);
    return status;
  }
  // Try-enqueue only: Overloaded propagates to the caller, which sheds.
  return batcher_.Submit(std::move(job), std::move(done));
}

void ExplainServer::Finish(const BatchJob& job,
                           const RequestBatcher::CompletionInfo* batch,
                           Result<ExplainResponse>* result) {
  const ExplainRequest& request = job.request;
  const std::string& tenant = TenantOf(request.tenant);
  // A batched request is answered when its batch finishes, not when the
  // worker reaches its bookkeeping after delivering the jobs before it.
  const int64_t latency_ns =
      (batch != nullptr ? batch->done_ns : MonotonicNanos()) - job.start_ns;
  if (!result->ok()) {
    slo_.RecordError(tenant, request.model);
    telemetry::RecordRequestSpan("serve/request_error", request.trace,
                                 request.trace.span_id, /*parent_span_id=*/0,
                                 job.start_ns, latency_ns,
                                 /*force_retain=*/true);
    return;
  }

  // Cache hits and coalesced followers hold a copy of another request's
  // response: re-stamp everything request-scoped (own ids, tier ask, queue
  // timing) and link the payload back to the execution that produced it.
  ExplainResponse& response = result->ValueOrDie();
  ExplanationProvenance& prov = response.provenance;
  StampProvenance(job, &prov);
  const bool coalesced = batch != nullptr && batch->coalesced;
  prov.cache_hit = response.cache_hit;
  prov.coalesced = coalesced;
  prov.coalesced_onto = coalesced ? batch->leader_trace_id : 0;
  if (batch == nullptr || coalesced) {
    prov.used_evals = 0;    // This request ran nothing...
    prov.compute_ms = 0.0;  // ...the producing execution is billed once.
  }
  prov.batch_size = batch != nullptr ? batch->batch_size : 0;
  prov.queue_ms =
      batch != nullptr
          ? static_cast<double>(batch->batch_start_ns - batch->enqueue_ns) / 1e6
          : 0.0;
  response.latency_ms = static_cast<double>(latency_ns) / 1e6;
  response.deadline_met =
      request.deadline_ms <= 0.0 || response.latency_ms <= request.deadline_ms;
  prov.total_ms = response.latency_ms;
  prov.deadline_met = response.deadline_met;
  prov.complete = true;
  if (!response.deadline_met) XAI_COUNTER_INC("serve/deadline_misses");

  slo_.Record(tenant, request.model, response.latency_ms,
              response.deadline_met, job.degraded, response.cache_hit,
              coalesced);
  // The request root span. A coalesced follower parent-links to the
  // leader's root, so the trace shows N requests hanging off one
  // execution. Tail retention keeps every missed/degraded request.
  telemetry::RecordRequestSpan(
      "serve/request", request.trace, request.trace.span_id,
      /*parent_span_id=*/coalesced ? batch->leader_span_id : 0, job.start_ns,
      latency_ns, /*force_retain=*/!response.deadline_met || job.degraded);
}

ExplainResponse ExplainServer::NewResponse(const BatchJob& job) {
  ExplainResponse response;
  response.kind = job.request.kind;
  response.served_tier = job.plan.tier;
  response.degraded = job.degraded;
  response.model_fingerprint = job.entry->fingerprint;
  response.planned_evals = job.plan.planned_evals;
  StampProvenance(job, &response.provenance);
  response.provenance.simd_backend = simd::BackendName(simd::Active());
  response.provenance.batch_size = 1;  // Overwritten by the funnel.
  return response;
}

void ExplainServer::StampProvenance(const BatchJob& job,
                                    ExplanationProvenance* prov) {
  const ExplainRequest& request = job.request;
  prov->trace_id = request.trace.trace_id;
  prov->root_span_id = request.trace.span_id;
  prov->tenant = TenantOf(request.tenant);
  prov->model = request.model;
  prov->kind = ExplainerKindName(request.kind);
  prov->requested_tier = FidelityTierName(request.fidelity);
  prov->served_tier = FidelityTierName(job.plan.tier);
  prov->algorithm = ExplainerKindName(job.plan.algorithm);
  prov->degraded = job.degraded;
  prov->planned_evals = job.plan.planned_evals;
}

Status ExplainServer::ExplainShapley(const BatchJob& job,
                                     const CoalitionGame& game,
                                     ExplainResponse* response) {
  const ExplainRequest& request = job.request;
  AttributionExplanation& attribution = response->attribution;
  Rng rng(request.seed);
  switch (job.plan.algorithm) {
    case ExplainerKind::kKernelShap: {
      XAI_ASSIGN_OR_RETURN(attribution,
                           KernelShap(game, job.plan.kernel_config, &rng));
      return Status::OK();
    }
    case ExplainerKind::kExactShapley: {
      XAI_ASSIGN_OR_RETURN(attribution.attributions, ExactShapley(game));
      break;
    }
    case ExplainerKind::kSamplingShapley:
      attribution.attributions =
          SamplingShapley(game, job.plan.sampling_permutations, &rng).values;
      break;
    default:
      return Status::Internal("non-Shapley plan in ExplainShapley");
  }
  attribution.base_value = game.Value(0);
  attribution.prediction = AsPredictFn(*job.entry->model)(request.instance);
  attribution.feature_names = FeatureNames(*job.entry->background);
  return Status::OK();
}

namespace {

void WriteAdmissionMetrics(std::ostream& os,
                           const async::AdmissionController& admission,
                           ExplainServer::MetricsFormat format) {
  const auto snapshot = admission.Snapshot();
  if (format == ExplainServer::MetricsFormat::kPrometheus) {
    auto series = [&](const char* metric, const char* type, auto value_of) {
      os << "# TYPE xai_admission_" << metric << " " << type << "\n";
      for (const auto& [tenant, stats] : snapshot) {
        os << "xai_admission_" << metric << "{tenant=";
        json::WriteString(os, tenant);
        os << "} " << value_of(stats) << "\n";
      }
    };
    series("tokens_available", "gauge",
           [](const auto& s) { return s.tokens_available; });
    series("pending", "gauge", [](const auto& s) { return s.pending; });
    series("admitted_total", "counter",
           [](const auto& s) { return s.admitted; });
    series("shed_rate_limited_total", "counter",
           [](const auto& s) { return s.shed_rate_limited; });
    series("shed_pending_total", "counter",
           [](const auto& s) { return s.shed_pending_full; });
  } else {
    for (const auto& [tenant, stats] : snapshot) {
      os << "{\"type\":\"admission\",\"tenant\":";
      json::WriteString(os, tenant);
      os << ",\"tokens_available\":" << stats.tokens_available
         << ",\"pending\":" << stats.pending
         << ",\"admitted\":" << stats.admitted
         << ",\"shed_rate_limited\":" << stats.shed_rate_limited
         << ",\"shed_pending_full\":" << stats.shed_pending_full << "}\n";
    }
  }
}

void WriteSessionMetrics(std::ostream& os,
                         const async::SessionManager& sessions,
                         ExplainServer::MetricsFormat format) {
  const auto stats = sessions.GetStats();
  if (format == ExplainServer::MetricsFormat::kPrometheus) {
    os << "# TYPE xai_sessions_active gauge\n"
       << "xai_sessions_active " << stats.active_sessions << "\n"
       << "# TYPE xai_sessions_opened_total counter\n"
       << "xai_sessions_opened_total " << stats.opened << "\n"
       << "# TYPE xai_sessions_expired_total counter\n"
       << "xai_sessions_expired_total " << stats.expired << "\n"
       << "# TYPE xai_sessions_memo_hits_total counter\n"
       << "xai_sessions_memo_hits_total " << stats.memo_hits << "\n"
       << "# TYPE xai_sessions_memo_misses_total counter\n"
       << "xai_sessions_memo_misses_total " << stats.memo_misses << "\n"
       << "# TYPE xai_sessions_reuse_answers_total counter\n"
       << "xai_sessions_reuse_answers_total " << stats.reuse_answers
       << "\n"
       << "# TYPE xai_sessions_memo_hit_rate gauge\n"
       << "xai_sessions_memo_hit_rate " << stats.memo_hit_rate << "\n";
  } else {
    os << "{\"type\":\"sessions\",\"active\":" << stats.active_sessions
       << ",\"opened\":" << stats.opened
       << ",\"expired\":" << stats.expired
       << ",\"memo_hits\":" << stats.memo_hits
       << ",\"memo_misses\":" << stats.memo_misses
       << ",\"reuse_answers\":" << stats.reuse_answers
       << ",\"memo_hit_rate\":" << stats.memo_hit_rate << "}\n";
  }
}

}  // namespace

std::string ExplainServer::MetricsSnapshot(MetricsFormat format) const {
  std::ostringstream os;
  if (format == MetricsFormat::kPrometheus) {
    telemetry::Registry::Global().WritePrometheus(os);
    slo_.WritePrometheus(os);
  } else {
    telemetry::Registry::Global().WriteJson(os);
    slo_.WriteJsonl(os);
  }
  if (admission_ != nullptr) WriteAdmissionMetrics(os, *admission_, format);
  if (sessions_ != nullptr) WriteSessionMetrics(os, *sessions_, format);
  return os.str();
}

Result<ExplainResponse> ExplainServer::Execute(const BatchJob& job) {
  // Adopt the request's trace identity for everything below — explainer
  // spans, cache writes, and every ParallelFor chunk record against this
  // request's trace_id with the root span as ancestor.
  XAI_TRACE_CONTEXT(job.request.trace);
  XAI_SPAN("serve/execute");
  const WallTimer timer;
  const ExplainRequest& request = job.request;
  const ModelEntry& entry = *job.entry;
  const TierPlan& plan = job.plan;

  ExplainResponse response = NewResponse(job);
  ExplanationProvenance& prov = response.provenance;
  const PredictFn predict = AsPredictFn(*entry.model);
  const int64_t background_rows = entry.background->num_rows();

  switch (plan.algorithm) {
    case ExplainerKind::kTreeShap: {
      if (entry.tree_view == nullptr)
        return Status::InvalidArgument(
            "tree_shap requires a tree model; " + entry.name + " is " +
            entry.kind);
      response.attribution = TreeShap(*entry.tree_view, request.instance);
      // Structural tree walk: no model-row evaluations to meter.
      prov.used_evals = 0;
      break;
    }
    case ExplainerKind::kExactShapley:
    case ExplainerKind::kKernelShap:
    case ExplainerKind::kSamplingShapley: {
      // Model-aware game: on a tree model it scores each block of
      // coalitions from the entry's compiled flat kernel with precomputed
      // split decisions; other models batch each coalition's rows.
      MarginalFeatureGame game(*entry.model, request.instance,
                               entry.background->x());
      XAI_RETURN_NOT_OK(ExplainShapley(job, game, &response));
      prov.used_evals = game.num_evaluations() * background_rows;
      break;
    }
    case ExplainerKind::kLime: {
      LimeExplainer lime(*entry.background, plan.lime_config);
      XAI_ASSIGN_OR_RETURN(LimeExplanation explanation,
                           lime.Explain(*entry.model, request.instance,
                                        request.seed));
      response.attribution = std::move(explanation);
      // LIME's sampling loop runs exactly its configured budget.
      prov.used_evals = plan.planned_evals;
      break;
    }
    case ExplainerKind::kAnchors: {
      AnchorsExplainer anchors(*entry.background, plan.anchors_config);
      XAI_ASSIGN_OR_RETURN(response.anchor,
                           anchors.Explain(predict, request.instance,
                                           request.seed));
      prov.used_evals =
          response.anchor.samples_used > 0
              ? static_cast<int64_t>(response.anchor.samples_used)
              : plan.planned_evals;
      break;
    }
    case ExplainerKind::kCounterfactual: {
      CounterfactualEvaluator evaluator(*entry.background);
      ActionabilitySpec spec = ActionabilitySpec::AllFree(*entry.background);
      Rng rng(request.seed);
      XAI_ASSIGN_OR_RETURN(
          DiceResult dice,
          DiceCounterfactuals(predict, request.instance,
                              request.desired_class, evaluator, spec,
                              plan.dice_config, &rng));
      response.counterfactuals = std::move(dice.counterfactuals);
      prov.used_evals = plan.planned_evals;
      break;
    }
  }

  prov.compute_ms = timer.Millis();
  if (request.use_cache)
    cache_.Put(job.key, std::make_shared<const ExplainResponse>(response));
  return response;
}

}  // namespace serve
}  // namespace xai
