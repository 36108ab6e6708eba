#ifndef XAI_SERVE_ASYNC_EVENT_LOOP_H_
#define XAI_SERVE_ASYNC_EVENT_LOOP_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "xai/core/status.h"

/// \file
/// The async front end's time source and its single-threaded FIFO executor.
///
/// Clock: admission and session expiry read time only through this
/// interface. RealClock forwards to the shared monotonic clock;
/// VirtualClock starts at zero and moves only when a test tells it to, so
/// a fixed schedule of (time, request) pairs yields one admit/shed
/// sequence at any thread count.
///
/// EventLoop: one thread draining a FIFO task queue. The front end runs
/// session turns on it (the session lane), which serializes each
/// dialogue's turns against its memo and candidate pool while the
/// explainers' own ParallelFor regions still fan out. Stateless requests
/// never pass through it: they are served on the submitting thread.
///
/// Trace propagation: Post wraps tasks with telemetry::BindTraceContext,
/// so spans opened inside a posted task parent-link to the submitting
/// request's trace.

namespace xai {
namespace serve {
namespace async {

/// Time source for admission and session expiry. Nanoseconds on an
/// arbitrary epoch; only differences matter.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual int64_t NowNanos() = 0;
};

/// Forwards to core/timer's MonotonicNanos — production clock.
class RealClock : public Clock {
 public:
  int64_t NowNanos() override;
};

/// Starts at zero, moves only via Advance/AdvanceTo (thread-safe).
class VirtualClock : public Clock {
 public:
  int64_t NowNanos() override;
  void Advance(int64_t delta_ns);
  void AdvanceTo(int64_t now_ns);

 private:
  std::mutex mu_;
  int64_t now_ns_ = 0;
};

/// \brief One thread draining a FIFO task queue.
class EventLoop {
 public:
  using Task = std::function<void()>;

  EventLoop();
  /// Shutdown(): queued tasks still run, then the thread is joined.
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Enqueues `fn` (FIFO), bound to the caller's current TraceContext.
  /// Returns Internal after Shutdown.
  Status Post(Task fn);

  /// Blocks the caller until the queue is empty and no task is running.
  /// Must not be called from the loop thread.
  void Drain();

  /// Stops accepting tasks, runs the ones already queued, joins the
  /// thread. Idempotent.
  void Shutdown();

  bool OnLoopThread() const;

 private:
  void Run();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> ready_;
  bool stopping_ = false;
  bool running_task_ = false;

  std::thread thread_;
};

}  // namespace async
}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_ASYNC_EVENT_LOOP_H_
