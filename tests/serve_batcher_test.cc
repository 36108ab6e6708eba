#include "xai/serve/batcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "xai/core/trace.h"

namespace xai {
namespace serve {
namespace {

BatchJob JobFor(const std::string& model, uint64_t instance_hash,
                bool coalescable = true) {
  BatchJob job;
  job.request.model = model;
  job.key = CacheKey{1, instance_hash, 2};
  job.coalescable = coalescable;
  return job;
}

/// Executor that stamps the instance hash into the response so tests can
/// check which execution a future was served from.
class CountingExecutor {
 public:
  RequestBatcher::Executor AsFn() {
    return [this](const BatchJob& job) -> Result<ExplainResponse> {
      ++calls_;
      ExplainResponse response;
      response.model_fingerprint = job.key.instance_hash;
      return response;
    };
  }
  int calls() const { return calls_.load(); }

 private:
  std::atomic<int> calls_{0};
};

/// Submits `job` and returns a future for the result its callback
/// delivers (or for the status Submit refused it with).
std::future<Result<ExplainResponse>> SubmitForFuture(RequestBatcher* batcher,
                                                     BatchJob job) {
  auto delivered = std::make_shared<std::promise<Result<ExplainResponse>>>();
  auto future = delivered->get_future();
  Status submitted =
      batcher->Submit(std::move(job), [delivered](Result<ExplainResponse> r) {
        delivered->set_value(std::move(r));
      });
  if (!submitted.ok()) delivered->set_value(submitted);
  return future;
}

TEST(RequestBatcherTest, ExecutesAndDeliversOnWorker) {
  CountingExecutor executor;
  RequestBatcher batcher(RequestBatcher::Config{}, executor.AsFn());
  BatchJob job = JobFor("m", 42);
  job.request.trace = telemetry::TraceContext{777, 5, true};
  std::promise<std::thread::id> worker;
  std::promise<uint64_t> trace_seen;
  std::promise<Result<ExplainResponse>> delivered;
  ASSERT_TRUE(batcher
                  .Submit(std::move(job),
                          [&](Result<ExplainResponse> result) {
                            worker.set_value(std::this_thread::get_id());
                            trace_seen.set_value(
                                telemetry::CurrentTraceContext().trace_id);
                            delivered.set_value(std::move(result));
                          })
                  .ok());
  auto result = delivered.get_future().get();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.ValueOrDie().model_fingerprint, 42u);
  EXPECT_EQ(executor.calls(), 1);
  EXPECT_NE(worker.get_future().get(), std::this_thread::get_id());
  // The callback continues the request under its own trace identity.
  EXPECT_EQ(trace_seen.get_future().get(), 777u);
}

TEST(RequestBatcherTest, CoalescesIdenticalKeysIntoOneExecution) {
  CountingExecutor executor;
  RequestBatcher::Config config;
  config.max_batch = 8;
  RequestBatcher batcher(config, executor.AsFn());

  // Hold the worker so all submissions land in one batch.
  batcher.Pause();
  std::vector<std::future<Result<ExplainResponse>>> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(SubmitForFuture(&batcher, JobFor("m", 7)));
  futures.push_back(SubmitForFuture(&batcher, JobFor("m", 9)));
  EXPECT_EQ(batcher.queue_depth(), 5);
  batcher.Resume();

  for (int i = 0; i < 4; ++i) {
    auto result = futures[i].get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.ValueOrDie().model_fingerprint, 7u);
  }
  EXPECT_EQ(futures[4].get().ValueOrDie().model_fingerprint, 9u);
  EXPECT_EQ(executor.calls(), 2) << "4 duplicates + 1 distinct => 2 runs";
}

TEST(RequestBatcherTest, NonCoalescableJobsAlwaysRun) {
  CountingExecutor executor;
  RequestBatcher batcher(RequestBatcher::Config{}, executor.AsFn());
  batcher.Pause();
  std::vector<std::future<Result<ExplainResponse>>> futures;
  for (int i = 0; i < 3; ++i)
    futures.push_back(
        SubmitForFuture(&batcher, JobFor("m", 7, /*coalescable=*/false)));
  batcher.Resume();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(executor.calls(), 3);
}

TEST(RequestBatcherTest, FullQueueFailsFastAndNeverRunsTheRejectedCallback) {
  CountingExecutor executor;
  RequestBatcher::Config config;
  config.max_queue = 2;
  RequestBatcher batcher(config, executor.AsFn());

  batcher.Pause();
  auto f1 = SubmitForFuture(&batcher, JobFor("m", 1));
  auto f2 = SubmitForFuture(&batcher, JobFor("m", 2));
  std::atomic<bool> ran{false};
  Status rejected = batcher.Submit(
      JobFor("m", 3), [&](Result<ExplainResponse>) { ran = true; });
  EXPECT_EQ(rejected.code(), StatusCode::kOverloaded);
  batcher.Resume();
  EXPECT_TRUE(f1.get().ok());
  EXPECT_TRUE(f2.get().ok());
  batcher.Flush();
  EXPECT_FALSE(ran) << "rejected callback must never run";
  EXPECT_EQ(executor.calls(), 2);
}

TEST(RequestBatcherTest, BatchesDrainOneModelAtATime) {
  CountingExecutor executor;
  RequestBatcher batcher(RequestBatcher::Config{}, executor.AsFn());
  batcher.Pause();
  std::vector<std::future<Result<ExplainResponse>>> futures;
  for (uint64_t i = 0; i < 3; ++i)
    futures.push_back(SubmitForFuture(&batcher, JobFor("a", 10 + i)));
  for (uint64_t i = 0; i < 3; ++i)
    futures.push_back(SubmitForFuture(&batcher, JobFor("b", 20 + i)));
  batcher.Resume();
  batcher.Flush();
  for (auto& future : futures) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(executor.calls(), 6);
  EXPECT_EQ(batcher.queue_depth(), 0);
}

TEST(RequestBatcherTest, ConcurrentSubmittersAllGetAnswers) {
  CountingExecutor executor;
  RequestBatcher::Config config;
  config.max_batch = 4;
  RequestBatcher batcher(config, executor.AsFn());

  constexpr int kClients = 8;
  constexpr int kPerClient = 16;
  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        auto result =
            SubmitForFuture(&batcher,
                            JobFor("m", static_cast<uint64_t>(c * 100 + i)))
                .get();
        if (result.ok() &&
            result.ValueOrDie().model_fingerprint ==
                static_cast<uint64_t>(c * 100 + i))
          ++answered;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered, kClients * kPerClient);
}

TEST(RequestBatcherTest, ShutdownFailsQueuedJobs) {
  std::vector<std::future<Result<ExplainResponse>>> orphans;
  {
    CountingExecutor executor;
    RequestBatcher batcher(RequestBatcher::Config{}, executor.AsFn());
    batcher.Pause();
    orphans.push_back(SubmitForFuture(&batcher, JobFor("m", 1)));
    orphans.push_back(SubmitForFuture(&batcher, JobFor("m", 2)));
  }
  for (auto& orphan : orphans) {
    auto result = orphan.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  }
}

}  // namespace
}  // namespace serve
}  // namespace xai
