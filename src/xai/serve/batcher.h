#ifndef XAI_SERVE_BATCHER_H_
#define XAI_SERVE_BATCHER_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "xai/core/status.h"
#include "xai/serve/degradation.h"
#include "xai/serve/explanation_cache.h"
#include "xai/serve/model_registry.h"
#include "xai/serve/request.h"

namespace xai {
namespace serve {

/// \brief One admitted request, resolved against the registry (the snapshot
/// it runs on), priced by the degradation policy (the tier plan it will
/// execute), and keyed for the cache (intra-batch coalescing identity).
struct BatchJob {
  ExplainRequest request;
  std::shared_ptr<const ModelEntry> entry;
  TierPlan plan;
  bool degraded = false;
  CacheKey key;
  /// Whether duplicate keys inside a batch may share one execution. The
  /// server sets this from `request.use_cache`: a caller opting out of the
  /// cache also opts out of result sharing.
  bool coalescable = true;
  /// When the request entered the serving pipeline (monotonic ns): its
  /// latency and its root span (`request.trace.span_id`) start here.
  int64_t start_ns = 0;
};

/// \brief Coalescing batch scheduler in front of the explainer executor.
///
/// Concurrent requests queue here instead of each grabbing the thread pool
/// for itself. A single worker drains up to `max_batch` queued jobs for one
/// model at a time, deduplicates jobs with identical cache keys (N users
/// refreshing the same explanation cost one computation), and fans the
/// unique executions out over core/parallel's ParallelFor — each job's
/// inner explainer parallelism then runs inline in its chunk, so responses
/// are bit-identical to unbatched execution at any thread count.
///
/// Backpressure: the queue is bounded at `max_queue` and `Submit` is
/// try-enqueue only — a full queue returns a typed Overloaded status at
/// once, and the caller converts it into a shed. No submitter ever parks on
/// queue space (a continuation submitting from this worker would deadlock),
/// and load sheds at admission, not mid-flight.
///
/// Telemetry: serve/batches, serve/batched_requests,
/// serve/coalesced_requests; histograms serve/batch_size,
/// serve/queue_depth.
class RequestBatcher {
 public:
  struct Config {
    /// Most jobs drained into one batch.
    int max_batch = 8;
    /// Queue bound; admission control beyond it.
    int max_queue = 256;
  };

  /// Executes one unique job (the server's explainer dispatch). Called from
  /// pool workers; must be const-reentrant.
  using Executor = std::function<Result<ExplainResponse>(const BatchJob&)>;

  /// Queue/batch timing of one completed job, monotonic nanoseconds. For
  /// coalesced followers the leader fields identify whose execution
  /// produced the shared payload (equal to the job's own ids for leaders
  /// and non-coalescable jobs).
  struct CompletionInfo {
    int64_t enqueue_ns = 0;      ///< Submit() accepted the job.
    int64_t batch_start_ns = 0;  ///< Its batch began executing.
    int64_t done_ns = 0;         ///< Its batch finished.
    int batch_size = 0;
    bool coalesced = false;
    uint64_t leader_trace_id = 0;
    uint64_t leader_span_id = 0;
  };

  /// Runs on the batch worker for every job, after its result is known and
  /// before its callback runs — the server's hook for stamping
  /// per-request provenance (queue/batch breakdown, coalesced-onto
  /// linkage) and SLO accounting. May mutate the result. Must not call
  /// back into the batcher.
  using Completion = std::function<void(
      const BatchJob&, const CompletionInfo&, Result<ExplainResponse>*)>;

  RequestBatcher(const Config& config, Executor executor,
                 Completion on_complete = nullptr);
  /// Fails queued jobs and joins the worker.
  ~RequestBatcher();

  /// Delivers one job's result. Runs on the batch worker after the
  /// completion hook, under the job's TraceContext (spans opened inside the
  /// callback parent-link to the request's trace).
  using Callback = std::function<void(Result<ExplainResponse>)>;

  /// Enqueues a job; never blocks. Returns Overloaded when the queue is
  /// full (the job was NOT accepted; `done` will never run) and Internal
  /// during shutdown. On OK, `done` is guaranteed to run exactly once —
  /// with the response, the executor's error, or an Internal status if the
  /// batcher stops first.
  Status Submit(BatchJob job, Callback done);

  /// Holds the worker between batches so tests can pile up concurrent
  /// submissions and observe them coalesce into one batch.
  void Pause();
  void Resume();

  /// Blocks until the queue is empty and no batch is in flight.
  void Flush();

  int queue_depth() const;

 private:
  struct Pending {
    BatchJob job;
    Callback done;
    int64_t enqueue_ns = 0;
  };

  /// Runs `pending`'s callback under its request's trace context.
  static void Deliver(Pending* pending, Result<ExplainResponse> result);

  void WorkerLoop();
  void ExecuteBatch(std::vector<Pending> batch);

  const Config config_;
  const Executor executor_;
  const Completion on_complete_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // Queue non-empty / stop / resume.
  std::condition_variable idle_cv_;  // Queue drained and worker idle.
  std::deque<Pending> queue_;
  bool paused_ = false;
  bool stopping_ = false;
  bool in_flight_ = false;

  std::thread worker_;
};

}  // namespace serve
}  // namespace xai

#endif  // XAI_SERVE_BATCHER_H_
