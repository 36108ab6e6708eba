#ifndef XAI_SERVE_ASYNC_FUTURE_H_
#define XAI_SERVE_ASYNC_FUTURE_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "xai/core/check.h"
#include "xai/core/status.h"
#include "xai/core/trace.h"
#include "xai/serve/request.h"

/// \file
/// Completion-callback futures for the async serving front end.
///
/// std::future has no continuation hook: a caller can only block on it,
/// which is exactly what a serving thread must never do. This Future<T>
/// adds `Then(fn)` — the continuation runs immediately if the value is
/// already there, or on whichever thread fulfills the promise otherwise.
/// That keeps the whole serving path event-driven: the wire layer decodes
/// and probes the cache on the caller's thread, the batcher computes on
/// pool workers, and the response encoder runs as a continuation wherever
/// the result lands, with zero parked threads.
///
/// Trace propagation: Then() captures the caller's TraceContext at
/// registration and installs it around the continuation (the same contract
/// as telemetry::BindTraceContext), so spans opened inside a continuation
/// parent-link to the request that registered it even though the value may
/// be produced on a foreign thread.
///
/// Blocking `Wait()`/`Get()` exist for tests and the bench driver only —
/// production serving code must use Then().

namespace xai {
namespace serve {
namespace async {

/// Shared channel between one Promise<T> and any number of Futures /
/// continuations. Value set exactly once (XAI_CHECK-enforced);
/// continuations registered after completion run inline on the registering
/// thread.
template <typename T>
class SharedState {
 public:
  void Set(T value) {
    std::vector<std::function<void(const T&)>> callbacks;
    {
      std::lock_guard<std::mutex> lock(mu_);
      XAI_CHECK_MSG(!value_.has_value(), "promise fulfilled twice");
      value_.emplace(std::move(value));
      callbacks.swap(callbacks_);
    }
    cv_.notify_all();
    for (auto& callback : callbacks) callback(*value_);
  }

  /// Registers `fn`, wrapped to run under `ctx`. Runs inline when the value
  /// already arrived.
  void AddCallback(const telemetry::TraceContext& ctx,
                   std::function<void(const T&)> fn) {
    auto bound = [ctx, fn = std::move(fn)](const T& value) {
      telemetry::ScopedTraceContext scope(ctx);
      fn(value);
    };
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!value_.has_value()) {
        callbacks_.push_back(std::move(bound));
        return;
      }
    }
    // Completed: run now, outside the lock (the value is immutable once
    // set, so the unlocked read cannot tear).
    bound(*value_);
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return value_.has_value(); });
  }

  const T& Get() {
    Wait();
    return *value_;
  }

  bool Ready() {
    std::lock_guard<std::mutex> lock(mu_);
    return value_.has_value();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<T> value_;
  std::vector<std::function<void(const T&)>> callbacks_;
};

template <typename T>
class Promise;

/// \brief Read side. Copyable (shares the state); continuations observe the
/// value by const reference — clone if you need to keep it.
template <typename T>
class Future {
 public:
  Future() = default;
  explicit Future(std::shared_ptr<SharedState<T>> state)
      : state_(std::move(state)) {}

  /// Makes an already-completed future (admission sheds and malformed
  /// frames resolve without a promise).
  static Future Ready(T value) {
    auto state = std::make_shared<SharedState<T>>();
    state->Set(std::move(value));
    return Future(std::move(state));
  }

  bool valid() const { return state_ != nullptr; }

  /// Registers a continuation bound to the *caller's* current TraceContext.
  /// Runs inline if already completed; otherwise on the fulfilling thread.
  void Then(std::function<void(const T&)> fn) {
    XAI_CHECK_MSG(state_ != nullptr, "Then() on an invalid future");
    state_->AddCallback(telemetry::CurrentTraceContext(), std::move(fn));
  }

  /// Blocking accessors — tests and the bench driver only.
  void Wait() const {
    XAI_CHECK_MSG(state_ != nullptr, "Wait() on an invalid future");
    state_->Wait();
  }
  const T& Get() const {
    XAI_CHECK_MSG(state_ != nullptr, "Get() on an invalid future");
    return state_->Get();
  }
  bool Ready() const { return state_ != nullptr && state_->Ready(); }

 private:
  std::shared_ptr<SharedState<T>> state_;
};

/// \brief Write side. Copyable — copies share the state so a promise can
/// ride inside a std::function task (which must be copyable); fulfilling
/// twice through any copy aborts.
template <typename T>
class Promise {
 public:
  Promise() : state_(std::make_shared<SharedState<T>>()) {}

  Future<T> GetFuture() const { return Future<T>(state_); }

  /// Const: fulfilling mutates the shared state, not this handle — so a
  /// promise captured by value in a non-mutable lambda can still deliver.
  void Set(T value) const { state_->Set(std::move(value)); }

 private:
  std::shared_ptr<SharedState<T>> state_;
};

/// The serving path's currency: a response or a typed error.
using ResponseFuture = Future<Result<ExplainResponse>>;
using ResponsePromise = Promise<Result<ExplainResponse>>;

/// Wire-level currency: an encoded response/error frame.
using FrameFuture = Future<std::string>;
using FramePromise = Promise<std::string>;

}  // namespace async
}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_ASYNC_FUTURE_H_
