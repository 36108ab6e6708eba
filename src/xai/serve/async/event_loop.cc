#include "xai/serve/async/event_loop.h"

#include <utility>

#include "xai/core/check.h"
#include "xai/core/telemetry.h"
#include "xai/core/timer.h"
#include "xai/core/trace.h"

namespace xai {
namespace serve {
namespace async {

int64_t RealClock::NowNanos() { return MonotonicNanos(); }

int64_t VirtualClock::NowNanos() {
  std::lock_guard<std::mutex> lock(mu_);
  return now_ns_;
}

void VirtualClock::Advance(int64_t delta_ns) {
  XAI_CHECK_MSG(delta_ns >= 0, "virtual time cannot move backwards");
  std::lock_guard<std::mutex> lock(mu_);
  now_ns_ += delta_ns;
}

void VirtualClock::AdvanceTo(int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  // Never rewind: concurrent advancers race benignly to the max.
  if (now_ns > now_ns_) now_ns_ = now_ns;
}

EventLoop::EventLoop() { thread_ = std::thread([this] { Run(); }); }

EventLoop::~EventLoop() { Shutdown(); }

Status EventLoop::Post(Task fn) {
  Task bound = telemetry::BindTraceContext(std::move(fn));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Internal("event loop is shutting down");
    ready_.push_back(std::move(bound));
    XAI_HISTOGRAM_RECORD("serve/loop_depth",
                         static_cast<int64_t>(ready_.size()));
  }
  work_cv_.notify_one();
  return Status::OK();
}

void EventLoop::Drain() {
  XAI_CHECK_MSG(!OnLoopThread(), "Drain() from the loop thread deadlocks");
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] {
    return (ready_.empty() && !running_task_) || stopping_;
  });
}

void EventLoop::Shutdown() {
  XAI_CHECK_MSG(!OnLoopThread(),
                "Shutdown() from the loop thread deadlocks");
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  idle_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool EventLoop::OnLoopThread() const {
  return std::this_thread::get_id() == thread_.get_id();
}

void EventLoop::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (!ready_.empty()) {
      Task task = std::move(ready_.front());
      ready_.pop_front();
      running_task_ = true;
      lock.unlock();
      task();
      lock.lock();
      running_task_ = false;
      continue;
    }
    // Queue empty: stop once asked, otherwise wake any drainer and park.
    if (stopping_) break;
    idle_cv_.notify_all();
    work_cv_.wait(lock);
  }
}

}  // namespace async
}  // namespace serve
}  // namespace xai
