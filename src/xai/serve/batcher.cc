#include "xai/serve/batcher.h"

#include <optional>
#include <unordered_map>
#include <utility>

#include "xai/core/parallel.h"
#include "xai/core/telemetry.h"
#include "xai/core/timer.h"
#include "xai/core/trace.h"

namespace xai {
namespace serve {

RequestBatcher::RequestBatcher(const Config& config, Executor executor,
                               Completion on_complete)
    : config_(config),
      executor_(std::move(executor)),
      on_complete_(std::move(on_complete)) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

RequestBatcher::~RequestBatcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

Status RequestBatcher::Submit(BatchJob job, Callback done) {
  Pending pending;
  pending.job = std::move(job);
  pending.done = std::move(done);
  pending.enqueue_ns = MonotonicNanos();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (static_cast<int>(queue_.size()) >= config_.max_queue) {
      XAI_COUNTER_INC("serve/batcher_overloaded");
      return Status::Overloaded("serving queue full");
    }
    if (stopping_) return Status::Internal("batcher is shutting down");
    queue_.push_back(std::move(pending));
    XAI_HISTOGRAM_RECORD("serve/queue_depth",
                         static_cast<int64_t>(queue_.size()));
  }
  work_cv_.notify_one();
  return Status::OK();
}

void RequestBatcher::Deliver(Pending* pending,
                             Result<ExplainResponse> result) {
  // The callback continues the request on this worker thread: install the
  // request's trace identity so any spans it opens stay causally linked.
  telemetry::ScopedTraceContext scope(pending->job.request.trace);
  pending->done(std::move(result));
}

void RequestBatcher::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void RequestBatcher::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void RequestBatcher::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [this] { return queue_.empty() && !in_flight_; });
}

int RequestBatcher::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(queue_.size());
}

void RequestBatcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return stopping_ || (!paused_ && !queue_.empty());
    });
    if (stopping_) break;

    // Drain up to max_batch jobs for the front job's model, preserving the
    // FIFO order of everything left behind.
    std::vector<Pending> batch;
    const std::string model = queue_.front().job.request.model;
    for (auto it = queue_.begin();
         it != queue_.end() &&
         static_cast<int>(batch.size()) < config_.max_batch;) {
      if (it->job.request.model == model) {
        batch.push_back(std::move(*it));
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    in_flight_ = true;
    lock.unlock();

    ExecuteBatch(std::move(batch));

    lock.lock();
    in_flight_ = false;
    if (queue_.empty()) idle_cv_.notify_all();
  }
  // Shutdown: fail whatever never ran. Move the entries out and deliver
  // after unlocking, mirroring ExecuteBatch — Deliver runs callbacks that
  // may re-enter the batcher (Submit, queue_depth, Flush), which would
  // deadlock under mu_.
  std::vector<Pending> orphans(std::make_move_iterator(queue_.begin()),
                               std::make_move_iterator(queue_.end()));
  queue_.clear();
  idle_cv_.notify_all();
  lock.unlock();
  for (auto& pending : orphans)
    Deliver(&pending, Status::Internal("batcher stopped"));
}

void RequestBatcher::ExecuteBatch(std::vector<Pending> batch) {
  const int n = static_cast<int>(batch.size());
  XAI_COUNTER_INC("serve/batches");
  XAI_COUNTER_ADD("serve/batched_requests", n);
  XAI_HISTOGRAM_RECORD("serve/batch_size", n);

  // Coalesce: identical cache keys share one execution (the first
  // occurrence leads). Jobs that opted out of caching always run alone.
  std::vector<int> leader_of(n);
  std::vector<int> leaders;
  leaders.reserve(n);
  std::unordered_map<CacheKey, int, CacheKeyHash> first_with_key;
  for (int i = 0; i < n; ++i) {
    if (batch[i].job.coalescable) {
      auto [it, inserted] = first_with_key.try_emplace(batch[i].job.key, i);
      leader_of[i] = it->second;
      if (inserted)
        leaders.push_back(i);
      else
        XAI_COUNTER_INC("serve/coalesced_requests");
    } else {
      leader_of[i] = i;
      leaders.push_back(i);
    }
  }

  // Unique executions fan out over the pool; each job's own explainer-level
  // ParallelFor then runs inline inside its chunk (nested regions
  // serialize), so batching never changes a response.
  const int64_t batch_start_ns = MonotonicNanos();
  std::vector<std::optional<Result<ExplainResponse>>> results(n);
  ParallelFor(static_cast<int64_t>(leaders.size()), 1,
              [&](int64_t begin, int64_t end, int64_t /*chunk*/) {
                for (int64_t k = begin; k < end; ++k) {
                  const int i = leaders[k];
                  results[i] = executor_(batch[i].job);
                }
              });
  const int64_t done_ns = MonotonicNanos();

  for (int i = 0; i < n; ++i) {
    // Followers get a copy of the leader's result; the completion hook then
    // rewrites the copy's per-request metadata (own trace ids, coalesced
    // linkage, queue timing) without touching the shared payload.
    Result<ExplainResponse> result = *results[leader_of[i]];
    if (on_complete_) {
      CompletionInfo info;
      info.enqueue_ns = batch[i].enqueue_ns;
      info.batch_start_ns = batch_start_ns;
      info.done_ns = done_ns;
      info.batch_size = n;
      info.coalesced = leader_of[i] != i;
      const telemetry::TraceContext& leader =
          batch[leader_of[i]].job.request.trace;
      info.leader_trace_id = leader.trace_id;
      info.leader_span_id = leader.span_id;
      on_complete_(batch[i].job, info, &result);
    }
    Deliver(&batch[i], std::move(result));
  }
}

}  // namespace serve
}  // namespace xai
