#include "xai/serve/async/frontend.h"

#include <utility>

#include "xai/core/check.h"
#include "xai/core/telemetry.h"

namespace xai {
namespace serve {
namespace async {

AsyncFrontEnd::AsyncFrontEnd(ExplainServer* server, const Config& config)
    : server_(server),
      config_(config),
      clock_(config.clock != nullptr ? config.clock : &real_clock_),
      admission_(config.admission),
      sessions_(server, config.sessions) {
  XAI_CHECK_MSG(server != nullptr, "AsyncFrontEnd requires a server");
  server_->AttachAdmission(&admission_);
  server_->AttachSessions(&sessions_);
}

AsyncFrontEnd::~AsyncFrontEnd() {
  // Stop the session lane first (queued turns still run), then wait out
  // every admitted request: its completion callback may be parked in the
  // batcher, and it touches admission state on delivery.
  session_lane_.Shutdown();
  {
    std::unique_lock<std::mutex> lock(inflight_mu_);
    inflight_cv_.wait(lock, [this] { return in_flight_ == 0; });
  }
  server_->AttachAdmission(nullptr);
  server_->AttachSessions(nullptr);
}

void AsyncFrontEnd::Drain() {
  session_lane_.Drain();
  std::unique_lock<std::mutex> lock(inflight_mu_);
  inflight_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

Status AsyncFrontEnd::AdmitOrShed(const std::string& tenant,
                                  const std::string& model,
                                  ExplainerKind kind, FidelityTier fidelity,
                                  uint64_t trace_id) {
  AdmissionController::Outcome outcome =
      admission_.Admit(tenant, clock_->NowNanos());
  if (outcome == AdmissionController::Outcome::kAdmitted) {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    ++in_flight_;
    return Status::OK();
  }
  RecordShed(tenant, model, kind, fidelity, trace_id);
  return Status::Overloaded(std::string("shed (") +
                            AdmissionOutcomeName(outcome) + ") for tenant '" +
                            tenant + "'");
}

void AsyncFrontEnd::RecordShed(const std::string& tenant,
                               const std::string& model, ExplainerKind kind,
                               FidelityTier fidelity, uint64_t trace_id) {
  XAI_COUNTER_INC("serve/frontend_shed");
  server_->slo().RecordShed(tenant, model);
  ExplanationProvenance p;
  p.trace_id = trace_id;
  p.tenant = tenant;
  p.model = model;
  p.kind = ExplainerKindName(kind);
  p.requested_tier = FidelityTierName(fidelity);
  p.shed = true;  // complete stays false: nothing executed.
  std::lock_guard<std::mutex> lock(shed_mu_);
  while (shed_records_.size() >= config_.max_shed_records) {
    shed_records_.pop_front();
    ++shed_records_dropped_;
  }
  shed_records_.push_back(std::move(p));
}

void AsyncFrontEnd::Complete(const std::string& tenant) {
  admission_.OnComplete(tenant);
  // Notify under the lock: once a waiter observes zero and returns, no
  // thread is still inside the condition variable.
  std::lock_guard<std::mutex> lock(inflight_mu_);
  --in_flight_;
  XAI_CHECK_MSG(in_flight_ >= 0, "Complete() without a matching admit");
  inflight_cv_.notify_all();
}

std::vector<ExplanationProvenance> AsyncFrontEnd::DrainShedRecords() {
  std::lock_guard<std::mutex> lock(shed_mu_);
  std::vector<ExplanationProvenance> out(shed_records_.begin(),
                                         shed_records_.end());
  shed_records_.clear();
  return out;
}

Result<uint64_t> AsyncFrontEnd::OpenSession() {
  const int64_t now_ns = clock_->NowNanos();
  sessions_.ExpireIdle(now_ns);
  return sessions_.OpenSession(now_ns);
}

Status AsyncFrontEnd::CloseSession(uint64_t session_id) {
  return sessions_.CloseSession(session_id);
}

template <typename Reply>
void AsyncFrontEnd::RunStateless(ExplainRequest request,
                                 ExplainServer::AsyncHints hints,
                                 const Reply& reply) {
  const std::string tenant = TenantOf(request.tenant);
  const std::string model = request.model;
  const ExplainerKind kind = request.kind;
  const FidelityTier fidelity = request.fidelity;
  const uint64_t trace_id = request.trace.trace_id;
  Status submitted =
      server_->ExplainAsync(std::move(request), reply, std::move(hints));
  if (!submitted.ok()) {
    // `reply` never ran. A full batcher queue is a shed like any other —
    // record and charge it; other codes (NotFound, InvalidArgument,
    // OutOfRange) are the client's error to see.
    if (submitted.code() == StatusCode::kOverloaded) {
      RecordShed(tenant, model, kind, fidelity, trace_id);
    }
    reply(submitted);
  }
}

template <typename Reply>
void AsyncFrontEnd::RunSessionTurn(uint64_t session_id, ExplainRequest request,
                                   const Reply& reply) {
  Status posted = session_lane_.Post(
      [this, session_id, request = std::move(request), reply] {
        const int64_t now_ns = clock_->NowNanos();
        sessions_.ExpireIdle(now_ns);
        reply(sessions_.Explain(session_id, request, now_ns));
      });
  // Refused only after Shutdown: the task, and its copy of `reply`, never
  // ran.
  if (!posted.ok()) reply(posted);
}

FrameFuture AsyncFrontEnd::SubmitWire(std::string frame) {
  // A malformed or shed request never decodes its instance.
  Result<WireRequestHeader> header_or = DecodeRequestHeader(frame);
  if (!header_or.ok()) {
    return FrameFuture::Ready(EncodeError(header_or.status(), 0));
  }
  const WireRequestHeader header = std::move(header_or).ValueUnsafe();
  const std::string tenant = TenantOf(header.tenant);

  Status admitted = AdmitOrShed(tenant, header.model, header.kind,
                                header.fidelity, header.trace_id);
  if (!admitted.ok()) {
    return FrameFuture::Ready(EncodeError(admitted, header.trace_id));
  }

  FramePromise promise;
  FrameFuture future = promise.GetFuture();
  const uint64_t trace_id = header.trace_id;
  auto reply = [this, tenant, promise = std::move(promise),
                trace_id](Result<ExplainResponse> result) {
    std::string out = result.ok() ? EncodeResponse(result.ValueUnsafe())
                                  : EncodeError(result.status(), trace_id);
    Complete(tenant);
    promise.Set(std::move(out));
  };
  if (header.session_id != 0) {
    // Session turns consult per-session state keyed on the instance, so the
    // payload is materialized (and integrity-checked) up front.
    Result<ExplainRequest> request = DecodeRequestBody(frame, header);
    if (!request.ok()) {
      reply(request.status());
    } else {
      RunSessionTurn(header.session_id, std::move(request).ValueUnsafe(),
                     reply);
    }
    return future;
  }
  // The instance stays encoded until the server proves it needs the bytes
  // (cache miss). ExplainAsync calls `materialize`, if at all, before it
  // returns, so the materializer may borrow the frame.
  ExplainServer::AsyncHints hints;
  hints.instance_hash = header.instance_hash;
  hints.deferred_count = static_cast<int64_t>(header.instance_count);
  hints.materialize = [&frame, &header](Vector* out) -> Status {
    XAI_ASSIGN_OR_RETURN(ExplainRequest decoded,
                         DecodeRequestBody(frame, header));
    *out = std::move(decoded.instance);
    return Status::OK();
  };
  RunStateless(RequestFromHeader(header), std::move(hints), reply);
  return future;
}

ResponseFuture AsyncFrontEnd::Submit(ExplainRequest request,
                                     uint64_t session_id) {
  const std::string tenant = TenantOf(request.tenant);
  Status admitted = AdmitOrShed(tenant, request.model, request.kind,
                                request.fidelity, request.trace.trace_id);
  if (!admitted.ok()) {
    return ResponseFuture::Ready(Result<ExplainResponse>(admitted));
  }

  ResponsePromise promise;
  ResponseFuture future = promise.GetFuture();
  auto reply = [this, tenant,
                promise = std::move(promise)](Result<ExplainResponse> result) {
    Complete(tenant);
    promise.Set(std::move(result));
  };
  if (session_id != 0) {
    RunSessionTurn(session_id, std::move(request), reply);
  } else {
    RunStateless(std::move(request), ExplainServer::AsyncHints(), reply);
  }
  return future;
}

}  // namespace async
}  // namespace serve
}  // namespace xai
