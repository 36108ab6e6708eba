#ifndef XAI_SERVE_ASYNC_FRONTEND_H_
#define XAI_SERVE_ASYNC_FRONTEND_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "xai/core/status.h"
#include "xai/serve/async/admission.h"
#include "xai/serve/async/event_loop.h"
#include "xai/serve/async/future.h"
#include "xai/serve/async/session.h"
#include "xai/serve/async/wire.h"
#include "xai/serve/explain_server.h"

/// \file
/// The async multi-tenant serving front end: the piece that turns the
/// synchronous ExplainServer pipeline into an event-driven server.
///
/// Request path (one wire frame):
///
///   caller thread                           batcher worker + pool
///   -------------------------------------   ---------------------
///   decode header
///   admission (tokens, pending bound)
///     --shed--> [typed Overloaded frame]
///   cache probe via header hashes (hit:
///     respond without decoding the
///     instance payload)
///   miss: materialize + verify instance,
///     try-enqueue (full queue => shed) --->  explain, encode,
///                                            fulfill future
///
/// No explainer runs on the caller's thread: it does the bookkeeping up to
/// the batcher's try-enqueue, so a cache hit, a shed or a pipeline error
/// resolves before SubmitWire/Submit returns.
///
/// Session turns (session_id != 0 in the frame) run on the session lane,
/// one EventLoop thread that serializes each dialogue's turns against its
/// memo/pool state while explainer-internal ParallelFor still fans out.
///
/// Every shed is recorded three ways: a shed ExplanationProvenance record
/// (DrainShedRecords, for an audit JSONL), a RecordShed charge against
/// the tenant's SLO deadline budget, and a typed Overloaded error frame to
/// the caller. Nothing is silently dropped.

namespace xai {
namespace serve {
namespace async {

class AsyncFrontEnd {
 public:
  struct Config {
    AdmissionController::Config admission;
    SessionManager::Config sessions;
    /// Swappable time source for the admission buckets and session expiry
    /// (VirtualClock under test). Must outlive the front end; null = real
    /// monotonic clock.
    Clock* clock = nullptr;
    /// Bound on buffered shed provenance records (oldest dropped first).
    size_t max_shed_records = 4096;
  };

  /// `server` must outlive the front end. The front end attaches its
  /// admission controller and session manager to the server's metrics
  /// surface (detached again on destruction).
  explicit AsyncFrontEnd(ExplainServer* server)
      : AsyncFrontEnd(server, Config()) {}
  AsyncFrontEnd(ExplainServer* server, const Config& config);
  ~AsyncFrontEnd();

  AsyncFrontEnd(const AsyncFrontEnd&) = delete;
  AsyncFrontEnd& operator=(const AsyncFrontEnd&) = delete;

  /// Serves one encoded request frame. The future resolves with a
  /// response frame (FrameType::kResponse) or a typed error frame
  /// (FrameType::kError — Overloaded for sheds). Malformed frames, sheds,
  /// cache hits and pipeline errors resolve on the calling thread before
  /// this returns; a computed miss resolves on the batcher worker.
  FrameFuture SubmitWire(std::string frame);

  /// Struct-level entry (tests, in-process clients): same admission and
  /// runners, no wire encoding. session_id 0 = stateless.
  ResponseFuture Submit(ExplainRequest request, uint64_t session_id = 0);

  /// Opens an interactive dialogue (idle sessions past their TTL are
  /// expired opportunistically here and on each session turn — no
  /// background timer, so Drain() semantics stay trivial).
  Result<uint64_t> OpenSession();
  Status CloseSession(uint64_t session_id);

  /// Blocks until the session lane is empty and every admitted request has
  /// delivered its response or error (tests/bench).
  void Drain();

  /// Swaps out the buffered shed provenance records.
  std::vector<ExplanationProvenance> DrainShedRecords();

  const AdmissionController& admission() const { return admission_; }
  const SessionManager& sessions() const { return sessions_; }

 private:
  /// Admission on the submitting thread. Returns OK and occupies a
  /// pending slot (paired with exactly one later Complete()), or the
  /// Overloaded status after recording the shed three ways.
  Status AdmitOrShed(const std::string& tenant, const std::string& model,
                     ExplainerKind kind, FidelityTier fidelity,
                     uint64_t trace_id);
  /// Records a shed in the provenance buffer and charges the tenant's SLO
  /// error budget. Does NOT release the pending slot (sheds never took
  /// one).
  void RecordShed(const std::string& tenant, const std::string& model,
                  ExplainerKind kind, FidelityTier fidelity,
                  uint64_t trace_id);
  /// Releases the admission slot and the in-flight count taken by an
  /// admitted request. Called exactly once per admitted request, on
  /// whatever thread delivers its response or error.
  void Complete(const std::string& tenant);

  // The two runners serve both entry points, which differ only in `reply`,
  // a copyable callable taking Result<ExplainResponse>: it calls Complete()
  // and delivers a frame (SubmitWire) or the result (Submit). Each runner
  // calls it exactly once, now or later. (Templates, so a reply is
  // type-erased only where the server takes it.)

  /// Stateless execution on the calling thread (cache probe -> batcher).
  template <typename Reply>
  void RunStateless(ExplainRequest request, ExplainServer::AsyncHints hints,
                    const Reply& reply);
  /// One dialogue turn, posted to the session lane.
  template <typename Reply>
  void RunSessionTurn(uint64_t session_id, ExplainRequest request,
                      const Reply& reply);

  ExplainServer* const server_;
  const Config config_;
  RealClock real_clock_;
  Clock* const clock_;
  AdmissionController admission_;
  SessionManager sessions_;

  /// Admitted-but-unanswered requests. Drain() (and the destructor) wait
  /// for this to reach zero so no completion callback can outlive the
  /// front end's admission state.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  int64_t in_flight_ = 0;

  std::mutex shed_mu_;
  std::deque<ExplanationProvenance> shed_records_;
  int64_t shed_records_dropped_ = 0;

  /// Last member: its thread runs turns that touch everything above.
  EventLoop session_lane_;
};

}  // namespace async
}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_ASYNC_FRONTEND_H_
