#ifndef XAI_SERVE_PROVENANCE_H_
#define XAI_SERVE_PROVENANCE_H_

#include <cstdint>
#include <ostream>
#include <string>

/// \file
/// Per-request explanation provenance: the serving-side audit record that
/// answers "why was *this* request slow / degraded / a cache miss?" without
/// re-running anything. One record rides on every ExplainResponse — a
/// product feature, not telemetry: records are populated even in
/// XAI_TELEMETRY=0 builds (the fields are assignments the server makes
/// anyway; only the span *events* compile out).
///
/// The record is deliberately flat and JSONL-serializable: serve_async_test
/// (ProvenanceJsonlCarriesTheSchemaForEveryOutcome) pins the export's
/// schema, and tools/analyze_trace.py --provenance joins it against the
/// Chrome trace by trace_id (CI runs it on `quickstart --telemetry`).

namespace xai {
namespace serve {

struct ExplanationProvenance {
  /// Request identity — matches the args.trace_id on every span this
  /// request emitted, including spans inside ParallelFor workers.
  uint64_t trace_id = 0;
  /// The request's root span (parent of serve/execute etc.).
  uint64_t root_span_id = 0;

  std::string tenant;
  std::string model;
  /// Pointers into string literals (ExplainerKindName / FidelityTierName /
  /// simd::BackendName); always non-null once stamped.
  const char* kind = "";
  const char* requested_tier = "";
  const char* served_tier = "";
  /// The algorithm that actually produced the payload after degradation
  /// (e.g. a kExactShapley request degraded onto "kernel_shap").
  const char* algorithm = "";

  bool degraded = false;
  bool cache_hit = false;
  /// True when this request never executed: it coalesced onto an identical
  /// in-flight request (the "leader") inside the RequestBatcher.
  bool coalesced = false;
  /// trace_id of the leader whose execution produced this payload
  /// (0 unless coalesced).
  uint64_t coalesced_onto = 0;

  /// Model-row evaluations the cost model priced the tier decision at...
  int64_t planned_evals = 0;
  /// ...and what execution actually spent (0 for cache hits and for
  /// explainers whose cost the server cannot observe, e.g. TreeSHAP's
  /// structural walk).
  int64_t used_evals = 0;

  /// simd::BackendName of the dispatch tier active during execution.
  const char* simd_backend = "";
  /// Number of requests in the batch this one executed in (1 = inline).
  int batch_size = 0;

  /// Time breakdown, milliseconds: queue wait (submit -> batch start),
  /// explainer execution, and end-to-end (equals ExplainResponse::
  /// latency_ms). cache-hit and coalesced-follower records keep
  /// compute_ms = 0 — they did not run the explainer.
  double queue_ms = 0.0;
  double compute_ms = 0.0;
  double total_ms = 0.0;

  bool deadline_met = true;
  /// True when admission control refused this request (rate limit, pending
  /// bound, or a full batcher queue): nothing executed, the tenant got a
  /// typed Overloaded answer, and the shed is charged against their SLO
  /// error budget. Shed records carry complete = false by construction —
  /// there was no execution to account for.
  bool shed = false;
  /// Set last, once every field above is final: the coverage bit
  /// serve_server_test asserts on misses, hits and coalesced followers. A
  /// response with complete == false means the serving path lost
  /// provenance somewhere — a bug.
  bool complete = false;
};

/// One JSONL line (object + '\n'). 64-bit ids serialize as decimal strings
/// (JSON numbers are doubles — ids above 2^53 would round).
void WriteProvenanceJsonl(std::ostream& os, const ExplanationProvenance& p);

}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_PROVENANCE_H_
