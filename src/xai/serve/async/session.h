#ifndef XAI_SERVE_ASYNC_SESSION_H_
#define XAI_SERVE_ASYNC_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "xai/core/status.h"
#include "xai/serve/explain_server.h"
#include "xai/serve/request.h"

/// \file
/// Session-scoped interactive explanation dialogues.
///
/// The tutorial's database-usability reading of XAI (§4, "explanation
/// dialogues"): users rarely ask one isolated "why?" — they iterate.
/// "Why was my loan denied?" → "what if my income were higher?" →
/// "why not class 1?". Stateless serving recomputes each turn from
/// scratch; a session keeps the intermediate work so follow-ups get
/// cheaper, the same way a DBMS keeps a cursor and buffer pool warm
/// across a drill-down.
///
/// Two kinds of state are kept per session:
///
///  1. **Coalition memo** (Shapley family). MarginalFeatureGame's value
///     v_x(S) depends on the instance only through x restricted to S —
///     off-coalition coordinates come from the background. The memo key is
///     therefore hash(model_fp, background_fp, S, x[i] for i in S): a
///     what-if that changes feature j reuses *every* coalition not
///     containing j (about half of a KernelSHAP budget, more for sparse
///     perturbations) and the reused values are bit-identical, not
///     approximations.
///
///  2. **Counterfactual candidate pool** (why-not / what-if search state).
///     DiCE's expensive part is the random-walk pool construction; the
///     session keeps every valid counterfactual seen for a model.
///     Follow-up requests first re-validate pooled candidates against the
///     new instance / desired class (a handful of model calls) and only
///     fall back to a fresh search when the pool cannot fund k candidates.
///
/// Session responses bypass the global explanation cache (their payloads
/// depend on session state ordering only in *cost*, never in content — but
/// keeping them out of the shared cache keeps that cache's identity rules
/// trivial). An exact repeat within a session is answered from a
/// session-local response memo instead.
///
/// Threading: one session is one dialogue — calls for the same session are
/// expected to be sequential (the front end serializes them on its session
/// lane). The manager itself is thread-safe across sessions, and sessions
/// are held by shared_ptr: a turn keeps its session alive even if
/// CloseSession/ExpireIdle runs concurrently from another thread (the front
/// end's caller-side entry points), so close never frees a session
/// mid-turn — the turn finishes against the detached session and the
/// memory is released when the last reference drops. The memo is
/// additionally mutex-guarded because ParallelFor workers consult it
/// concurrently during one explanation.

namespace xai {
namespace serve {
namespace async {

class SessionManager {
 public:
  struct Config {
    /// Open-session bound; opening beyond it fails with Overloaded.
    int max_sessions = 256;
    /// Coalition-memo entries per session before inserts stop (reuse of
    /// already-memoized coalitions continues).
    size_t max_memo_entries = 1 << 16;
    /// Counterfactual candidates kept per model within a session.
    size_t max_pool_candidates = 256;
    /// Idle time before ExpireIdle() closes a session, nanoseconds.
    int64_t session_ttl_ns = 600LL * 1000 * 1000 * 1000;
  };

  explicit SessionManager(ExplainServer* server)
      : SessionManager(server, Config()) {}
  SessionManager(ExplainServer* server, const Config& config);

  /// Opens a dialogue; ids are sequential from 1 (deterministic across
  /// runs — they appear in wire frames and bench output).
  Result<uint64_t> OpenSession(int64_t now_ns);
  Status CloseSession(uint64_t session_id);

  /// Serves one turn of the dialogue. Shapley-family and counterfactual
  /// requests run through the session's reuse structures; everything else
  /// falls through to the server unchanged. Either way the turn is a
  /// request like any other: it gets a trace id and completes through the
  /// server's funnel (one SLO entry, one root span, the deadline verdict).
  Result<ExplainResponse> Explain(uint64_t session_id,
                                  const ExplainRequest& request,
                                  int64_t now_ns);

  /// Closes sessions idle past the TTL. The front end calls this from a
  /// periodic loop timer.
  void ExpireIdle(int64_t now_ns);

  struct Stats {
    int active_sessions = 0;
    int64_t opened = 0;
    int64_t expired = 0;
    /// Coalition-memo hits / misses across all sessions (lifetime).
    int64_t memo_hits = 0;
    int64_t memo_misses = 0;
    /// Requests answered fully from session state (response memo or
    /// counterfactual pool) without a fresh explainer run.
    int64_t reuse_answers = 0;
    /// memo_hits / (memo_hits + memo_misses); 0 when no traffic.
    double memo_hit_rate = 0.0;
  };
  Stats GetStats() const;

 private:
  struct PooledCandidate {
    Vector x;
    uint64_t content_hash = 0;
  };

  struct Session {
    uint64_t id = 0;
    int64_t last_used_ns = 0;
    /// Coalition memo: key -> v(S). Shared across instances (see file
    /// comment for the key construction).
    std::unordered_map<uint64_t, double> memo;
    /// Exact-repeat response memo, keyed like the server's cache.
    std::unordered_map<CacheKey, std::shared_ptr<const ExplainResponse>,
                       CacheKeyHash>
        responses;
    /// Counterfactual candidates per model fingerprint.
    std::unordered_map<uint64_t, std::vector<PooledCandidate>> pool;
    std::mutex memo_mu;  ///< ParallelFor workers read/write memo.
    int64_t memo_hits = 0;
    int64_t memo_misses = 0;
  };

  /// Turn bodies for an admitted job; SessionManager::Explain completes
  /// them through ExplainServer::Finish.
  Result<ExplainResponse> ExplainShapley(Session* session,
                                         const BatchJob& job);
  Result<ExplainResponse> ExplainCounterfactual(Session* session,
                                                const BatchJob& job);
  /// Folds a dying session's memo counters into the lifetime totals.
  /// Caller holds mu_; takes session.memo_mu for the counter reads.
  void RetireLocked(Session& session);

  ExplainServer* const server_;
  const Config config_;

  mutable std::mutex mu_;
  /// shared_ptr, not unique_ptr: Explain holds a reference for the whole
  /// turn, so erasing here never destroys a session that is mid-turn.
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_id_ = 1;
  int64_t opened_ = 0;
  int64_t expired_ = 0;
  int64_t reuse_answers_ = 0;
  int64_t retired_memo_hits_ = 0;
  int64_t retired_memo_misses_ = 0;
};

}  // namespace async
}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_ASYNC_SESSION_H_
