#ifndef XAI_SERVE_ASYNC_FRONTEND_H_
#define XAI_SERVE_ASYNC_FRONTEND_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
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
///   caller thread            control loop               batcher workers
///   ------------------       ------------------------   ----------------
///   decode header
///   admission (tokens,
///     pending bound) --shed--> [typed Overloaded frame]
///        |
///        +--Post--------->  cache probe via header
///                            hashes (hit: respond
///                            without decoding the
///                            instance payload)
///                            miss: materialize+verify
///                            instance, try-enqueue  --->  explain, encode,
///                            (full queue => shed)         fulfill future
///
/// Session turns (session_id != 0 in the frame) run on a second loop — the
/// session lane — which serializes each dialogue's turns against its
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
    /// Swappable time source for both loops and the admission buckets
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
  /// (FrameType::kError — Overloaded for sheds). Malformed frames and
  /// admission sheds resolve immediately on the calling thread.
  FrameFuture SubmitWire(std::string frame);

  /// Struct-level entry (tests, in-process clients): same admission and
  /// loop hop, no wire encoding. session_id 0 = stateless.
  ResponseFuture Submit(ExplainRequest request, uint64_t session_id = 0);

  /// Opens an interactive dialogue (idle sessions past their TTL are
  /// expired opportunistically here and on each session turn — no
  /// background timer, so Drain() semantics stay trivial).
  Result<uint64_t> OpenSession();
  Status CloseSession(uint64_t session_id);

  /// Blocks until both loops are empty and every admitted request has
  /// delivered its response or error (tests/bench).
  void Drain();

  /// Swaps out the buffered shed provenance records.
  std::vector<ExplanationProvenance> DrainShedRecords();

  const AdmissionController& admission() const { return admission_; }
  const SessionManager& sessions() const { return sessions_; }
  EventLoop& loop() { return *loop_; }

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

  /// Stateless execution on the control loop (cache probe -> batcher).
  template <typename Reply>
  void RunStateless(ExplainRequest request, ExplainServer::AsyncHints hints,
                    const Reply& reply);
  /// One dialogue turn on the session lane; `request` carries the body
  /// decode's error, if any.
  template <typename Reply>
  void RunSessionTurn(uint64_t session_id,
                      const Result<ExplainRequest>& request,
                      const Reply& reply);

  ExplainServer* const server_;
  const Config config_;
  RealClock real_clock_;
  Clock* const clock_;
  AdmissionController admission_;
  SessionManager sessions_;
  std::unique_ptr<EventLoop> loop_;
  std::unique_ptr<EventLoop> session_lane_;

  /// Admitted-but-unanswered requests. Drain() (and the destructor) wait
  /// for this to reach zero so no completion callback can outlive the
  /// front end's admission state.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  int64_t in_flight_ = 0;

  std::mutex shed_mu_;
  std::deque<ExplanationProvenance> shed_records_;
  int64_t shed_records_dropped_ = 0;
};

}  // namespace async
}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_ASYNC_FRONTEND_H_
