#include "xai/serve/async/frontend.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/core/telemetry.h"
#include "xai/core/trace.h"
#include "xai/data/synthetic.h"
#include "xai/model/gbdt.h"
#include "xai/model/serialization.h"
#include "xai/serve/async/event_loop.h"
#include "xai/serve/async/future.h"
#include "xai/serve/async/wire.h"
#include "xai/serve/provenance.h"

namespace xai {
namespace serve {
namespace async {
namespace {

// ---- Event loop ----------------------------------------------------------

TEST(EventLoopTest, RunsPostedTasksInFifoOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(loop.Post([&order, i] { order.push_back(i); }).ok());
  }
  loop.Drain();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, PostPropagatesTraceContextAcrossTheHop) {
  EventLoop loop;
  uint64_t seen_inside = 0;
  uint64_t seen_after = 1;  // Anything non-zero.
  {
    telemetry::ScopedTraceContext scope(
        telemetry::TraceContext{424242, 7, true});
    ASSERT_TRUE(loop.Post([&] {
                      seen_inside = telemetry::CurrentTraceContext().trace_id;
                    })
                    .ok());
  }
  // The submitter's context is gone by the time the task runs; the loop
  // must have captured it at Post time.
  ASSERT_TRUE(
      loop.Post([&] { seen_after = telemetry::CurrentTraceContext().trace_id; })
          .ok());
  loop.Drain();
  EXPECT_EQ(seen_inside, 424242u);
  EXPECT_EQ(seen_after, 0u);
}

TEST(EventLoopTest, PostAfterShutdownIsRefused) {
  EventLoop loop;
  loop.Shutdown();
  EXPECT_FALSE(loop.Post([] {}).ok());
}

// ---- Futures -------------------------------------------------------------

TEST(FutureTest, ThenRunsAfterFulfillmentAndInlineWhenReady) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  int seen = 0;
  future.Then([&](const int& v) { seen = v; });
  EXPECT_EQ(seen, 0);
  promise.Set(41);
  EXPECT_EQ(seen, 41);

  // Registration after completion runs inline.
  int late = 0;
  future.Then([&](const int& v) { late = v + 1; });
  EXPECT_EQ(late, 42);

  Future<int> ready = Future<int>::Ready(7);
  EXPECT_TRUE(ready.Ready());
  EXPECT_EQ(ready.Get(), 7);
}

TEST(FutureTest, ThenCarriesTheRegistrantsTraceContext) {
  Promise<int> promise;
  Future<int> future = promise.GetFuture();
  uint64_t seen = 0;
  {
    telemetry::ScopedTraceContext scope(telemetry::TraceContext{99, 1, true});
    future.Then(
        [&](const int&) { seen = telemetry::CurrentTraceContext().trace_id; });
  }
  // Fulfilled outside any trace context: the continuation still runs under
  // the context captured at registration.
  promise.Set(1);
  EXPECT_EQ(seen, 99u);
}

TEST(FutureDeathTest, DoubleFulfillAborts) {
  Promise<int> promise;
  promise.Set(1);
  EXPECT_DEATH(promise.Set(2), "fulfilled twice");
}

// ---- Front end against a real server -------------------------------------

class AsyncFrontEndTest : public ::testing::Test {
 protected:
  AsyncFrontEndTest()
      : train_(MakeLoans(160, 3)), background_(MakeLoans(24, 4)) {
    GbdtModel::Config config;
    config.n_trees = 5;
    gbdt_text_ = SerializeModel(GbdtModel::Train(train_, config).ValueOrDie());
    instance_ = train_.Row(0);
  }

  void TearDown() override { SetNumThreads(1); }

  void RegisterLoans(ExplainServer* server) {
    server->registry().Register("loans", gbdt_text_, background_).ValueOrDie();
  }

  ExplainRequest Request(ExplainerKind kind) const {
    ExplainRequest request;
    request.model = "loans";
    request.instance = instance_;
    request.kind = kind;
    request.seed = 17;
    request.tenant = "acme";
    return request;
  }

  Dataset train_;
  Dataset background_;
  std::string gbdt_text_;
  Vector instance_;
};

TEST_F(AsyncFrontEndTest, WireRoundTripMatchesSynchronousExplain) {
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd frontend(&server);
  for (ExplainerKind kind :
       {ExplainerKind::kTreeShap, ExplainerKind::kKernelShap,
        ExplainerKind::kLime}) {
    const ExplainRequest request = Request(kind);
    const ExplainResponse expected = server.Explain(request).ValueOrDie();

    FrameFuture future = frontend.SubmitWire(EncodeRequest(request));
    const std::string& frame = future.Get();
    ASSERT_EQ(PeekFrameType(frame).ValueOrDie(), FrameType::kResponse)
        << ExplainerKindName(kind);
    const WireResponse wire = DecodeResponse(frame).ValueOrDie();
    // Un-torn: embedded hash matches a recomputation over the decoded
    // payload, and the payload matches the synchronous pipeline's.
    EXPECT_EQ(PayloadHash(wire.response), wire.payload_hash);
    EXPECT_EQ(PayloadHash(wire.response), PayloadHash(expected));
  }
  frontend.Drain();
  // Every admitted request released its slot on delivery.
  for (const auto& [tenant, stats] : frontend.admission().Snapshot()) {
    EXPECT_EQ(stats.pending, 0) << tenant;
  }
}

TEST_F(AsyncFrontEndTest, CacheHitIsServedWithoutDecodingTheInstance) {
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd frontend(&server);
  const ExplainRequest request = Request(ExplainerKind::kKernelShap);

  // Warm the cache through the wire path.
  const std::string warm = frontend.SubmitWire(EncodeRequest(request)).Get();
  const WireResponse first = DecodeResponse(warm).ValueOrDie();

  // Same request again, but with the instance payload corrupted after the
  // header (header + carried hash intact). On a cache hit the payload is
  // never deserialized, so the corruption must be invisible.
  std::string frame = EncodeRequest(request);
  const WireRequestHeader header = DecodeRequestHeader(frame).ValueOrDie();
  frame[header.instance_offset + 1] ^= 0x7F;
  const std::string hit_frame = frontend.SubmitWire(frame).Get();
  ASSERT_EQ(PeekFrameType(hit_frame).ValueOrDie(), FrameType::kResponse);
  const WireResponse hit = DecodeResponse(hit_frame).ValueOrDie();
  EXPECT_TRUE(hit.response.cache_hit);
  EXPECT_EQ(PayloadHash(hit.response), PayloadHash(first.response));

  // Against a cold server the same corrupt frame must be refused at
  // materialization: the carried hash no longer matches the bytes — the
  // integrity gate that keeps a corrupt payload out of the cache.
  ExplainServer cold;
  RegisterLoans(&cold);
  AsyncFrontEnd cold_frontend(&cold);
  const std::string rejected = cold_frontend.SubmitWire(frame).Get();
  ASSERT_EQ(PeekFrameType(rejected).ValueOrDie(), FrameType::kError);
  const WireError error = DecodeError(rejected).ValueOrDie();
  EXPECT_EQ(error.code, StatusCode::kInvalidArgument);
}

TEST_F(AsyncFrontEndTest, AdmissionShedsAreTypedRecordedAndCharged) {
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd::Config config;
  config.admission.tokens_per_sec = 1e-9;  // Effectively no refill.
  config.admission.burst = 1.0;
  VirtualClock clock;  // Frozen at zero: decisions are a pure function.
  config.clock = &clock;
  AsyncFrontEnd frontend(&server, config);

  const ExplainRequest request = Request(ExplainerKind::kTreeShap);
  FrameFuture admitted = frontend.SubmitWire(EncodeRequest(request));
  FrameFuture shed = frontend.SubmitWire(EncodeRequest(request));

  // The shed resolves immediately on the submitting thread, with a typed
  // Overloaded error frame.
  ASSERT_TRUE(shed.Ready());
  const WireError error = DecodeError(shed.Get()).ValueOrDie();
  EXPECT_EQ(error.code, StatusCode::kOverloaded);
  EXPECT_NE(error.message.find("rate_limited"), std::string::npos);

  EXPECT_EQ(PeekFrameType(admitted.Get()).ValueOrDie(), FrameType::kResponse);
  frontend.Drain();

  // Shed provenance: shed=true, complete=false, tenant attributed.
  const auto records = frontend.DrainShedRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].shed);
  EXPECT_FALSE(records[0].complete);
  EXPECT_EQ(records[0].tenant, "acme");
  EXPECT_EQ(records[0].model, "loans");
  EXPECT_TRUE(frontend.DrainShedRecords().empty());

  // Charged to the tenant's SLO standing and visible in the metrics
  // surface the front end attached.
  EXPECT_EQ(frontend.admission().TotalShed(), 1);
  const std::string jsonl =
      server.MetricsSnapshot(ExplainServer::MetricsFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"shed\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"admission\""), std::string::npos);
}

TEST_F(AsyncFrontEndTest, FullBatcherQueueIsAShedLikeAnyOther) {
  ExplainServer::Config server_config;
  server_config.batcher.max_queue = 1;
  ExplainServer server(server_config);
  RegisterLoans(&server);
  AsyncFrontEnd frontend(&server);
  auto pending_of = [&](const std::string& tenant) {
    for (const auto& [name, stats] : frontend.admission().Snapshot())
      if (name == tenant) return stats.pending;
    return -1;
  };

  // The first request takes the only queue slot; with the worker held,
  // the second finds the queue full after passing admission.
  server.batcher()->Pause();
  const ExplainRequest request = Request(ExplainerKind::kTreeShap);
  FrameFuture queued = frontend.SubmitWire(EncodeRequest(request));
  FrameFuture shed = frontend.SubmitWire(EncodeRequest(request));
  // EXPECT, not ASSERT: returning here would leave the batcher paused and
  // the front end's destructor waiting on the queued request.
  EXPECT_TRUE(shed.Ready());

  const std::string& shed_frame = shed.Get();
  ASSERT_EQ(PeekFrameType(shed_frame).ValueOrDie(), FrameType::kError);
  EXPECT_EQ(DecodeError(shed_frame).ValueOrDie().code, StatusCode::kOverloaded);

  const auto records = frontend.DrainShedRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].shed);
  EXPECT_FALSE(records[0].complete);
  EXPECT_EQ(records[0].tenant, "acme");
  EXPECT_EQ(records[0].model, "loans");
  int64_t slo_shed = -1;
  for (const auto& s : server.slo().Snapshot())
    if (s.tenant == "acme" && s.model == "loans") slo_shed = s.shed;
  EXPECT_EQ(slo_shed, 1);

  // The shed released its own slot; the queued request still holds one.
  EXPECT_EQ(pending_of("acme"), 1);
  EXPECT_FALSE(queued.Ready());
  server.batcher()->Resume();
  EXPECT_EQ(PeekFrameType(queued.Get()).ValueOrDie(), FrameType::kResponse);
  frontend.Drain();
  EXPECT_EQ(pending_of("acme"), 0);
}

TEST_F(AsyncFrontEndTest, AdmissionErrorsDoNotLeakPendingSlots) {
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd frontend(&server);
  ExplainRequest request = Request(ExplainerKind::kTreeShap);
  request.model = "nonexistent";
  Result<ExplainResponse> result = frontend.Submit(request).Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  frontend.Drain();
  for (const auto& [tenant, stats] : frontend.admission().Snapshot()) {
    EXPECT_EQ(stats.pending, 0) << tenant;
  }
}

// Stateless requests are served on the submitting thread up to the
// batcher's try-enqueue, so whatever needs no explainer (a cache hit, an
// unknown model, a corrupt deferred instance or a schema mismatch)
// resolves before SubmitWire or Submit returns, its pending slot already
// released — no Drain() involved.
TEST_F(AsyncFrontEndTest, StatelessRequestsResolveBeforeTheCallReturns) {
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd frontend(&server);
  ExplainServer cold;
  RegisterLoans(&cold);
  AsyncFrontEnd cold_frontend(&cold);
  auto pending = [](const AsyncFrontEnd& fe) {
    int total = 0;
    for (const auto& [tenant, stats] : fe.admission().Snapshot())
      total += stats.pending;
    return total;
  };

  const ExplainRequest request = Request(ExplainerKind::kKernelShap);
  ASSERT_TRUE(frontend.Submit(request).Get().ok());  // Warms the cache.
  ExplainRequest unknown = request;
  unknown.model = "nonexistent";
  std::string corrupt = EncodeRequest(request);
  corrupt[DecodeRequestHeader(corrupt).ValueOrDie().instance_offset + 1] ^=
      0x7F;
  ExplainRequest too_wide = request;
  too_wide.instance.push_back(0.0);

  FrameFuture hit = frontend.SubmitWire(EncodeRequest(request));
  ASSERT_TRUE(hit.Ready());
  EXPECT_TRUE(DecodeResponse(hit.Get()).ValueOrDie().response.cache_hit);
  FrameFuture missing = frontend.SubmitWire(EncodeRequest(unknown));
  ASSERT_TRUE(missing.Ready());
  EXPECT_EQ(DecodeError(missing.Get()).ValueOrDie().code,
            StatusCode::kNotFound);
  FrameFuture rejected = cold_frontend.SubmitWire(corrupt);
  ASSERT_TRUE(rejected.Ready());
  EXPECT_EQ(DecodeError(rejected.Get()).ValueOrDie().code,
            StatusCode::kInvalidArgument);

  ResponseFuture struct_hit = frontend.Submit(request);
  ASSERT_TRUE(struct_hit.Ready());
  EXPECT_TRUE(struct_hit.Get().ValueOrDie().cache_hit);
  ResponseFuture struct_missing = frontend.Submit(unknown);
  ASSERT_TRUE(struct_missing.Ready());
  EXPECT_EQ(struct_missing.Get().status().code(), StatusCode::kNotFound);
  ResponseFuture struct_rejected = cold_frontend.Submit(too_wide);
  ASSERT_TRUE(struct_rejected.Ready());
  EXPECT_EQ(struct_rejected.Get().status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(pending(frontend), 0);
  EXPECT_EQ(pending(cold_frontend), 0);
}

// Several client threads run the front end's stateless path at once: four
// threads each send the same 24 frames (TreeSHAP, KernelSHAP and LIME over
// 8 instances), so cache hits, computed misses and coalesced followers mix
// while ExplainAsync, Complete and the shed buffer run on every caller
// thread. Every frame is an un-torn response equal to a stateless Explain,
// nothing is shed, and every pending slot is released.
TEST_F(AsyncFrontEndTest, ConcurrentSubmittersGetStatelessAnswers) {
  constexpr int kClients = 4;
  std::vector<ExplainRequest> requests;
  for (ExplainerKind kind : {ExplainerKind::kTreeShap,
                             ExplainerKind::kKernelShap, ExplainerKind::kLime}) {
    for (int row = 0; row < 8; ++row) {
      ExplainRequest request = Request(kind);
      request.instance = train_.Row(row);
      requests.push_back(request);
    }
  }
  std::vector<std::string> frames;
  std::vector<uint64_t> want;
  ExplainServer stateless;
  RegisterLoans(&stateless);
  for (const ExplainRequest& request : requests) {
    frames.push_back(EncodeRequest(request));
    want.push_back(PayloadHash(stateless.Explain(request).ValueOrDie()));
  }

  AsyncFrontEnd::Config config;
  config.admission.tokens_per_sec = 0.0;  // Both gates off: nothing sheds.
  config.admission.max_pending_per_tenant = 0;
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetNumThreads(threads);
    ExplainServer server;
    RegisterLoans(&server);
    AsyncFrontEnd frontend(&server, config);

    std::vector<std::vector<std::string>> got(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<FrameFuture> futures;
        for (const std::string& frame : frames)
          futures.push_back(frontend.SubmitWire(frame));
        for (FrameFuture& future : futures) got[c].push_back(future.Get());
      });
    }
    for (std::thread& client : clients) client.join();

    for (int c = 0; c < kClients; ++c) {
      ASSERT_EQ(got[c].size(), frames.size());
      for (size_t i = 0; i < frames.size(); ++i) {
        ASSERT_EQ(PeekFrameType(got[c][i]).ValueOrDie(), FrameType::kResponse)
            << "client " << c << " frame " << i;
        const WireResponse wire = DecodeResponse(got[c][i]).ValueOrDie();
        EXPECT_EQ(PayloadHash(wire.response), wire.payload_hash)
            << "torn: client " << c << " frame " << i;
        EXPECT_EQ(wire.payload_hash, want[i])
            << "client " << c << " frame " << i;
      }
    }
    frontend.Drain();
    for (const auto& [tenant, stats] : frontend.admission().Snapshot()) {
      EXPECT_EQ(stats.pending, 0) << tenant;
    }
    EXPECT_TRUE(frontend.DrainShedRecords().empty());
  }
}

// A continuation of a computed miss runs on the batcher worker and submits
// from there: the same frame again (a cache hit, answered inline on that
// worker) and a new instance (a miss, queued behind the batch being
// delivered). Both resolve and Drain() returns.
TEST_F(AsyncFrontEndTest, ContinuationsMaySubmitFromTheBatcherWorker) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetNumThreads(threads);
    ExplainServer server;
    RegisterLoans(&server);
    AsyncFrontEnd frontend(&server);
    const std::string frame =
        EncodeRequest(Request(ExplainerKind::kKernelShap));
    ExplainRequest next = Request(ExplainerKind::kKernelShap);
    next.instance = train_.Row(1);
    const std::string next_frame = EncodeRequest(next);

    struct Resubmitted {
      std::thread::id thread;
      FrameFuture hit;
      bool hit_ready_on_return = false;
      FrameFuture miss;
    };
    std::promise<Resubmitted> resubmitted;
    // Hold the worker so the continuation is registered before the miss
    // resolves, and so runs on the thread that resolves it.
    server.batcher()->Pause();
    FrameFuture first = frontend.SubmitWire(frame);
    first.Then([&](const std::string&) {
      Resubmitted r;
      r.thread = std::this_thread::get_id();
      r.hit = frontend.SubmitWire(frame);
      r.hit_ready_on_return = r.hit.Ready();
      r.miss = frontend.SubmitWire(next_frame);
      resubmitted.set_value(std::move(r));
    });
    server.batcher()->Resume();

    Resubmitted r = resubmitted.get_future().get();
    EXPECT_NE(r.thread, std::this_thread::get_id());
    EXPECT_TRUE(r.hit_ready_on_return);
    const WireResponse hit = DecodeResponse(r.hit.Get()).ValueOrDie();
    EXPECT_TRUE(hit.response.cache_hit);
    EXPECT_EQ(hit.payload_hash,
              DecodeResponse(first.Get()).ValueOrDie().payload_hash);
    const WireResponse miss = DecodeResponse(r.miss.Get()).ValueOrDie();
    EXPECT_FALSE(miss.response.cache_hit);
    EXPECT_EQ(PayloadHash(miss.response), miss.payload_hash);
    frontend.Drain();
    for (const auto& [tenant, stats] : frontend.admission().Snapshot()) {
      EXPECT_EQ(stats.pending, 0) << tenant;
    }
  }
}

TEST_F(AsyncFrontEndTest, SessionFollowUpsReuseCoalitionsBitIdentically) {
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd frontend(&server);
  const uint64_t session = frontend.OpenSession().ValueOrDie();

  ExplainRequest first = Request(ExplainerKind::kKernelShap);
  const ExplainResponse cold =
      frontend.Submit(first, session).Get().ValueOrDie();
  EXPECT_EQ(PayloadHash(cold),
            PayloadHash(server.Explain(first).ValueOrDie()));
  const auto after_first = frontend.sessions().GetStats();
  EXPECT_GT(after_first.memo_misses, 0);

  // What-if follow-up: one feature changes. Coalitions excluding that
  // feature replay from the memo; the answer must be bit-identical to a
  // from-scratch stateless run (the memo trades cost, never content).
  ExplainRequest what_if = first;
  what_if.instance[0] += 1.0;
  const ExplainResponse warm =
      frontend.Submit(what_if, session).Get().ValueOrDie();
  // Fetch the stateless baseline exactly once: a second server.Explain of
  // the same request would hit the server's explanation cache and report
  // zero evaluations.
  const ExplainResponse stateless = server.Explain(what_if).ValueOrDie();
  EXPECT_EQ(PayloadHash(warm), PayloadHash(stateless));

  const auto after_second = frontend.sessions().GetStats();
  EXPECT_GT(after_second.memo_hits, 0);
  // The follow-up touched the model strictly less than the stateless run.
  EXPECT_LT(warm.provenance.used_evals, stateless.provenance.used_evals);
  EXPECT_GT(warm.provenance.used_evals, 0);

  // An exact repeat is answered from the session's response memo.
  const ExplainResponse repeat =
      frontend.Submit(what_if, session).Get().ValueOrDie();
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(PayloadHash(repeat), PayloadHash(warm));
  EXPECT_GT(frontend.sessions().GetStats().reuse_answers, 0);

  ASSERT_TRUE(frontend.CloseSession(session).ok());
  EXPECT_EQ(frontend.Submit(what_if, session).Get().status().code(),
            StatusCode::kNotFound);
}

TEST_F(AsyncFrontEndTest, SessionMemoCountsRepeatsInsideABlockAsHits) {
  // Sampling Shapley values each chunk's permutations as one block, in
  // which the full coalition (among others) repeats. On one thread every
  // distinct coalition misses once and every repeat is a hit, as it would
  // be mask by mask, so the misses are exactly the model's evaluations.
  SetNumThreads(1);
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd frontend(&server);
  const uint64_t session = frontend.OpenSession().ValueOrDie();
  const ExplainResponse cold =
      frontend.Submit(Request(ExplainerKind::kSamplingShapley), session)
          .Get()
          .ValueOrDie();
  const auto stats = frontend.sessions().GetStats();
  EXPECT_GT(stats.memo_hits, 0);
  EXPECT_EQ(stats.memo_misses * background_.num_rows(),
            cold.provenance.used_evals);
}

TEST_F(AsyncFrontEndTest, SessionCounterfactualPoolAnswersFollowUps) {
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd frontend(&server);
  const uint64_t session = frontend.OpenSession().ValueOrDie();

  ExplainRequest request = Request(ExplainerKind::kCounterfactual);
  request.use_cache = false;  // Force past the response memo: exercise the
                              // candidate pool itself.
  // Ask for the class the instance does NOT currently have — otherwise the
  // search returns k copies of the trivial zero-mutation point, which
  // dedup collapses to a single pooled candidate.
  request.desired_class = 0;
  const ExplainResponse first =
      frontend.Submit(request, session).Get().ValueOrDie();
  // Pool reuse can only fund k follow-up candidates if the first search
  // produced at least k DISTINCT valid points (the pool dedups by content).
  std::set<uint64_t> distinct;
  for (const auto& cf : first.counterfactuals) {
    if (cf.valid) distinct.insert(ContentHash64(cf.x));
  }
  const int valid = static_cast<int>(distinct.size());

  const auto before = frontend.sessions().GetStats();
  const ExplainResponse second =
      frontend.Submit(request, session).Get().ValueOrDie();
  const auto after = frontend.sessions().GetStats();

  const TierPlan plan = server.policy().Choose(
      ExplainerKind::kCounterfactual, request.fidelity,
      static_cast<int>(instance_.size()), background_.num_rows(),
      request.deadline_ms);
  if (valid >= plan.dice_config.k) {
    // The pool could fund the follow-up: answered by re-validation, far
    // cheaper than a fresh search.
    EXPECT_GT(after.reuse_answers, before.reuse_answers);
    EXPECT_LT(second.provenance.used_evals, first.provenance.used_evals);
    for (const auto& cf : second.counterfactuals) EXPECT_TRUE(cf.valid);
  } else {
    EXPECT_FALSE(second.counterfactuals.empty());
  }
}

// Session turns are requests like any other: each completes through the
// server's funnel, so it adds one SloTracker entry in the right column and
// one root span, and a turn past its deadline counts one
// serve/deadline_misses. Every row's turn misses its 100 ns deadline.
TEST_F(AsyncFrontEndTest, SessionTurnsAccountExactlyOnce) {
  enum class Turn { kShapley, kCounterfactual, kMemoRepeat, kUnknownModel };
  const struct {
    const char* name;
    Turn turn;
  } rows[] = {
      {"computed shapley turn", Turn::kShapley},
      {"computed counterfactual turn", Turn::kCounterfactual},
      {"response memo repeat", Turn::kMemoRepeat},
      {"unknown model", Turn::kUnknownModel},
  };
  uint64_t next_trace_id = 7001;
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    ExplainServer server;
    RegisterLoans(&server);
    AsyncFrontEnd frontend(&server);
    const uint64_t session = frontend.OpenSession().ValueOrDie();
    ExplainRequest request = Request(row.turn == Turn::kCounterfactual
                                         ? ExplainerKind::kCounterfactual
                                         : ExplainerKind::kKernelShap);
    request.deadline_ms = 1e-4;
    if (row.turn == Turn::kUnknownModel) request.model = "missing";
    if (row.turn == Turn::kMemoRepeat) {
      ASSERT_TRUE(frontend.Submit(request, session).Get().ok());
    }
    request.trace.trace_id = next_trace_id++;
    const bool fails = row.turn == Turn::kUnknownModel;
    const bool hit = row.turn == Turn::kMemoRepeat;

    auto cell = [&] {
      for (const auto& s : server.slo().Snapshot())
        if (s.tenant == "acme" && s.model == request.model) return s;
      return TenantSloStats();
    };
    telemetry::Counter* deadline_misses =
        telemetry::Registry::Global().GetCounter("serve/deadline_misses");
    const TenantSloStats before = cell();
    const int64_t misses_before = deadline_misses->Get();
#if XAI_TELEMETRY
    telemetry::internal::ClearTraceEvents();
#endif

    const Result<ExplainResponse> result =
        frontend.Submit(request, session).Get();
    ASSERT_EQ(result.ok(), !fails) << result.status().ToString();
    if (!fails) {
      const ExplainResponse& response = result.ValueOrDie();
      EXPECT_FALSE(response.deadline_met);
      EXPECT_EQ(response.cache_hit, hit);
      EXPECT_EQ(response.latency_ms, response.provenance.total_ms);
      EXPECT_EQ(response.provenance.trace_id, request.trace.trace_id);
      EXPECT_TRUE(response.provenance.complete);
      if (hit) {
        EXPECT_EQ(response.provenance.used_evals, 0);
      } else {
        EXPECT_GT(response.provenance.used_evals, 0);
        EXPECT_EQ(response.provenance.batch_size, 1);
      }
    }

    const TenantSloStats after = cell();
    EXPECT_EQ(after.requests - before.requests, 1);
    EXPECT_EQ(after.errors - before.errors, fails ? 1 : 0);
    EXPECT_EQ(after.deadline_misses - before.deadline_misses, fails ? 0 : 1);
    EXPECT_EQ(after.cache_hits - before.cache_hits, hit ? 1 : 0);
#if XAI_TELEMETRY
    EXPECT_EQ(deadline_misses->Get() - misses_before, fails ? 0 : 1);
    std::vector<telemetry::TraceEvent> events;
    telemetry::internal::CollectTraceEvents(&events);
    int ok_roots = 0;
    int error_roots = 0;
    for (const auto& e : events) {
      if (e.trace_id != request.trace.trace_id) continue;
      if (std::string(e.name) == "serve/request") ++ok_roots;
      if (std::string(e.name) == "serve/request_error") ++error_roots;
    }
    EXPECT_EQ(ok_roots, fails ? 0 : 1);
    EXPECT_EQ(error_roots, fails ? 1 : 0);
#else
    (void)misses_before;
#endif
  }
}

TEST_F(AsyncFrontEndTest, SessionTableBoundsAndExpiry) {
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd::Config config;
  config.sessions.max_sessions = 2;
  config.sessions.session_ttl_ns = 1000;
  VirtualClock clock;
  config.clock = &clock;
  AsyncFrontEnd frontend(&server, config);

  const uint64_t a = frontend.OpenSession().ValueOrDie();
  const uint64_t b = frontend.OpenSession().ValueOrDie();
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(frontend.OpenSession().status().code(), StatusCode::kOverloaded);

  // Past the TTL both sessions expire, making room again.
  clock.Advance(2000);
  const uint64_t c = frontend.OpenSession().ValueOrDie();
  EXPECT_EQ(c, 3u);
  const auto stats = frontend.sessions().GetStats();
  EXPECT_EQ(stats.expired, 2);
  EXPECT_EQ(stats.active_sessions, 1);
}

TEST_F(AsyncFrontEndTest, CloseDuringInFlightTurnIsSafe) {
  // CloseSession arrives from the caller thread while turns run on the
  // session lane. The session is shared_ptr-held for the duration of a
  // turn, so the close must never free it mid-use: every submitted turn
  // resolves (with the explanation or NotFound, depending on ordering)
  // and nothing crashes or races (TSan covers the latter).
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd frontend(&server);
  const uint64_t session = frontend.OpenSession().ValueOrDie();

  std::vector<ResponseFuture> futures;
  for (int i = 0; i < 4; ++i)
    futures.push_back(
        frontend.Submit(Request(ExplainerKind::kKernelShap), session));
  ASSERT_TRUE(frontend.CloseSession(session).ok());

  for (auto& future : futures) {
    const Result<ExplainResponse> result = future.Get();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
    }
  }
  frontend.Drain();
  for (const auto& [tenant, stats] : frontend.admission().Snapshot()) {
    EXPECT_EQ(stats.pending, 0) << tenant;
  }
}

TEST_F(AsyncFrontEndTest, WirePayloadsAreBitIdenticalAcrossThreadCounts) {
  const ExplainerKind kinds[] = {ExplainerKind::kTreeShap,
                                 ExplainerKind::kKernelShap,
                                 ExplainerKind::kSamplingShapley,
                                 ExplainerKind::kLime};
  std::vector<uint64_t> reference;
  for (int threads : {1, 4, 8}) {
    SetNumThreads(threads);
    ExplainServer server;
  RegisterLoans(&server);
    AsyncFrontEnd frontend(&server);
    std::vector<FrameFuture> futures;
    for (ExplainerKind kind : kinds) {
      ExplainRequest request = Request(kind);
      request.instance = train_.Row(1);
      futures.push_back(frontend.SubmitWire(EncodeRequest(request)));
    }
    std::vector<uint64_t> hashes;
    for (auto& future : futures) {
      const WireResponse wire = DecodeResponse(future.Get()).ValueOrDie();
      EXPECT_EQ(PayloadHash(wire.response), wire.payload_hash);
      hashes.push_back(wire.payload_hash);
    }
    if (reference.empty()) {
      reference = hashes;
    } else {
      EXPECT_EQ(hashes, reference) << threads << " threads";
    }
  }
}

// Open-loop arrivals on a virtual clock: a seeded Zipfian schedule of
// tenants, explainer kinds and instances, one arrival every 50 us of
// virtual time, sent as wire frames. The pending bound is off and the
// batcher queue holds every arrival, so the token buckets alone decide
// admission, each decision a pure function of (tenant, arrival time).
// Every response frame must carry an intact payload (its embedded hash
// verifies) equal to a stateless Explain of the same request; every other
// frame must be a typed Overloaded shed; and each tenant's admit/shed
// sequence must equal a sequential AdmissionController replay of the
// schedule, at 1, 4 and 8 compute threads.
TEST_F(AsyncFrontEndTest, OpenLoopZipfianArrivalsShedDeterministically) {
  constexpr int kArrivals = 300;
  constexpr int64_t kGapNs = 50'000;
  const char* const kTenants[] = {"alpha", "beta",    "gamma",
                                  "delta", "epsilon", "zeta"};
  const ExplainerKind kKinds[] = {ExplainerKind::kTreeShap,
                                  ExplainerKind::kKernelShap,
                                  ExplainerKind::kLime};
  auto zipf = [](int n) {
    std::vector<double> w(n);
    for (int i = 0; i < n; ++i) w[i] = 1.0 / (i + 1);
    return w;
  };
  const std::vector<double> tenant_w = zipf(6);
  const std::vector<double> kind_w = zipf(3);
  const std::vector<double> instance_w = zipf(8);

  Rng rng(2023);
  std::vector<ExplainRequest> schedule;
  for (int i = 0; i < kArrivals; ++i) {
    ExplainRequest request = Request(kKinds[rng.Categorical(kind_w)]);
    request.instance = train_.Row(rng.Categorical(instance_w));
    request.tenant = kTenants[rng.Categorical(tenant_w)];
    request.fidelity = FidelityTier::kReduced;
    request.trace.trace_id = static_cast<uint64_t>(i) + 1;
    schedule.push_back(request);
  }

  AsyncFrontEnd::Config config;
  config.admission.tokens_per_sec = 2000.0;
  config.admission.burst = 10.0;
  config.admission.max_pending_per_tenant = 0;
  config.max_shed_records = kArrivals;

  // What the schedule must produce: one sequential replay of the decisions,
  // and a stateless payload for every request it admits.
  AdmissionController replay(config.admission);
  ExplainServer stateless;
  RegisterLoans(&stateless);
  std::map<std::string, std::vector<bool>> want_admitted;
  std::vector<uint64_t> want_hash(kArrivals, 0);
  int want_shed = 0;
  for (int i = 0; i < kArrivals; ++i) {
    const bool admitted =
        replay.Admit(schedule[i].tenant, i * kGapNs) ==
        AdmissionController::Outcome::kAdmitted;
    want_admitted[schedule[i].tenant].push_back(admitted);
    if (admitted) {
      want_hash[i] = PayloadHash(stateless.Explain(schedule[i]).ValueOrDie());
    } else {
      ++want_shed;
    }
  }
  ASSERT_GT(want_shed, 0);
  ASSERT_LT(want_shed, kArrivals * 6 / 10);

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetNumThreads(threads);
    ExplainServer::Config server_config;
    server_config.batcher.max_queue = kArrivals;
    ExplainServer server(server_config);
    RegisterLoans(&server);
    VirtualClock clock;
    config.clock = &clock;
    AsyncFrontEnd frontend(&server, config);

    std::vector<FrameFuture> futures;
    for (int i = 0; i < kArrivals; ++i) {
      clock.AdvanceTo(i * kGapNs);
      futures.push_back(frontend.SubmitWire(EncodeRequest(schedule[i])));
    }
    frontend.Drain();

    std::map<std::string, std::vector<bool>> got_admitted;
    int shed = 0;
    for (int i = 0; i < kArrivals; ++i) {
      const std::string& frame = futures[i].Get();
      const FrameType type = PeekFrameType(frame).ValueOrDie();
      got_admitted[schedule[i].tenant].push_back(type ==
                                                 FrameType::kResponse);
      if (type == FrameType::kResponse) {
        const WireResponse wire = DecodeResponse(frame).ValueOrDie();
        EXPECT_EQ(PayloadHash(wire.response), wire.payload_hash)
            << "torn frame " << i;
        EXPECT_EQ(wire.payload_hash, want_hash[i]) << "arrival " << i;
      } else {
        ASSERT_EQ(type, FrameType::kError) << "arrival " << i;
        EXPECT_EQ(DecodeError(frame).ValueOrDie().code,
                  StatusCode::kOverloaded)
            << "arrival " << i;
        ++shed;
      }
    }
    EXPECT_EQ(shed, want_shed);
    EXPECT_EQ(got_admitted, want_admitted);
    EXPECT_EQ(frontend.DrainShedRecords().size(),
              static_cast<size_t>(want_shed));
  }
}

// A minimal reader for one line of WriteProvenanceJsonl: a flat JSON object
// of string, number and boolean values.
enum class JsonType { kString, kInt, kReal, kBool };
struct JsonField {
  JsonType type;
  std::string text;  // Unquoted string, or the number or boolean literal.
};

bool ParseFlatJsonObject(std::string_view line,
                         std::map<std::string, JsonField>* fields) {
  size_t i = 0;
  auto at = [&](char c) { return i < line.size() && line[i] == c; };
  auto read_string = [&](std::string* out) {
    if (!at('"')) return false;
    for (++i; i < line.size() && line[i] != '"'; ++i) {
      if (line[i] == '\\' && ++i == line.size()) return false;
      out->push_back(line[i]);
    }
    return i++ < line.size();
  };
  if (!at('{')) return false;
  ++i;
  while (true) {
    std::string key;
    JsonField field{JsonType::kString, ""};
    if (!read_string(&key) || !at(':')) return false;
    ++i;
    if (at('"')) {
      if (!read_string(&field.text)) return false;
    } else if (line.substr(i, 4) == "true" || line.substr(i, 5) == "false") {
      field.type = JsonType::kBool;
      field.text = line[i] == 't' ? "true" : "false";
      i += field.text.size();
    } else {
      const size_t end = line.find_first_of(",}", i);
      if (end == std::string_view::npos || end == i) return false;
      field.text = std::string(line.substr(i, end - i));
      char* parsed_to = nullptr;
      std::strtod(field.text.c_str(), &parsed_to);
      if (*parsed_to != '\0' ||
          field.text.find_first_not_of("-+.0123456789eE") !=
              std::string::npos) {
        return false;  // Not a JSON number (inf and nan included).
      }
      field.type = field.text.find_first_of(".eE") == std::string::npos
                       ? JsonType::kInt
                       : JsonType::kReal;
      i = end;
    }
    if (!fields->emplace(key, field).second) return false;  // Repeated key.
    if (at(',')) {
      ++i;
    } else if (at('}')) {
      return ++i == line.size();
    } else {
      return false;
    }
  }
}

// The provenance export, line by line, for each kind of record the serving
// path emits: an executed miss, its coalesced follower, a cache hit and an
// admission shed. Every line is one object holding exactly the schema's 22
// keys with their JSON types; ids are decimal strings; a shed record is
// never complete and every other record is; counts and timings are never
// negative; and a coalesced record names its leader.
TEST_F(AsyncFrontEndTest, ProvenanceJsonlCarriesTheSchemaForEveryOutcome) {
  ExplainServer server;
  RegisterLoans(&server);
  AsyncFrontEnd::Config config;
  config.admission.tokens_per_sec = 1e-9;  // Effectively no refill.
  config.admission.burst = 3.0;            // Miss, follower, hit; then shed.
  VirtualClock clock;
  config.clock = &clock;
  AsyncFrontEnd frontend(&server, config);

  const ExplainRequest request = Request(ExplainerKind::kKernelShap);
  server.batcher()->Pause();
  ResponseFuture leader = frontend.Submit(request);
  ResponseFuture follower = frontend.Submit(request);
  while (server.batcher()->queue_depth() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  server.batcher()->Resume();
  std::vector<ExplanationProvenance> records = {
      leader.Get().ValueOrDie().provenance,
      follower.Get().ValueOrDie().provenance,
      frontend.Submit(request).Get().ValueOrDie().provenance};
  EXPECT_EQ(frontend.Submit(request).Get().status().code(),
            StatusCode::kOverloaded);
  frontend.Drain();
  for (ExplanationProvenance& shed : frontend.DrainShedRecords())
    records.push_back(shed);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_FALSE(records[0].cache_hit || records[0].coalesced);
  EXPECT_TRUE(records[1].coalesced);
  EXPECT_TRUE(records[2].cache_hit);
  EXPECT_TRUE(records[3].shed);

  std::ostringstream os;
  for (const ExplanationProvenance& p : records) WriteProvenanceJsonl(os, p);
  const std::string jsonl = os.str();
  ASSERT_FALSE(jsonl.empty());
  ASSERT_EQ(jsonl.back(), '\n');

  using T = JsonType;
  const std::map<std::string, std::set<JsonType>> kSchema = {
      {"trace_id", {T::kString}},      {"root_span_id", {T::kString}},
      {"tenant", {T::kString}},        {"model", {T::kString}},
      {"kind", {T::kString}},          {"requested_tier", {T::kString}},
      {"served_tier", {T::kString}},   {"algorithm", {T::kString}},
      {"degraded", {T::kBool}},        {"cache_hit", {T::kBool}},
      {"coalesced", {T::kBool}},       {"coalesced_onto", {T::kString}},
      {"planned_evals", {T::kInt}},    {"used_evals", {T::kInt}},
      {"simd_backend", {T::kString}},  {"batch_size", {T::kInt}},
      {"queue_ms", {T::kInt, T::kReal}},
      {"compute_ms", {T::kInt, T::kReal}},
      {"total_ms", {T::kInt, T::kReal}},
      {"deadline_met", {T::kBool}},    {"shed", {T::kBool}},
      {"complete", {T::kBool}},
  };
  ASSERT_EQ(kSchema.size(), 22u);
  auto decimal = [](const std::string& s) {
    return !s.empty() &&
           s.find_first_not_of("0123456789") == std::string::npos;
  };

  std::istringstream lines(jsonl);
  std::string line;
  size_t n = 0;
  while (std::getline(lines, line)) {
    SCOPED_TRACE("line " + std::to_string(n + 1) + ": " + line);
    std::map<std::string, JsonField> f;
    ASSERT_TRUE(ParseFlatJsonObject(line, &f));
    ASSERT_EQ(f.size(), kSchema.size());
    for (const auto& [key, types] : kSchema) {
      ASSERT_EQ(f.count(key), 1u) << key;
      EXPECT_EQ(types.count(f.at(key).type), 1u) << key;
    }
    for (const char* id : {"trace_id", "root_span_id", "coalesced_onto"})
      EXPECT_TRUE(decimal(f.at(id).text)) << id;
    const bool shed = f.at("shed").text == "true";
    EXPECT_EQ(f.at("complete").text, shed ? "false" : "true");
    if (!shed) {
      EXPECT_NE(f.at("trace_id").text, "0");
    }
    for (const char* key : {"planned_evals", "used_evals", "batch_size",
                            "queue_ms", "compute_ms", "total_ms"})
      EXPECT_GE(std::strtod(f.at(key).text.c_str(), nullptr), 0.0) << key;
    if (f.at("coalesced").text == "true") {
      EXPECT_EQ(f.at("coalesced_onto").text,
                std::to_string(records[0].trace_id));
    }
    ++n;
  }
  EXPECT_EQ(n, records.size());
}

// Generated dialogues: per seed, one session takes 6-10 random
// Shapley-family turns (KernelSHAP, sampling Shapley, and exact Shapley
// where the tier allows it) at random fidelity, on instances that differ
// from a base row in a random subset of coordinates, with exact repeats.
// Every turn's payload must equal a stateless Explain of the same request
// on a second server that never saw the dialogue: the session memo, capped
// below the dialogue's coalition count on every third seed, trades cost and
// never content. Counterfactual turns are left out, because answers from
// the session's candidate pool are meant to differ from a fresh search.
TEST_F(AsyncFrontEndTest, GeneratedDialoguesMatchStatelessExplain) {
  const ExplainerKind kinds[] = {ExplainerKind::kKernelShap,
                                 ExplainerKind::kSamplingShapley,
                                 ExplainerKind::kExactShapley};
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      AsyncFrontEnd::Config config;
      const bool capped = seed % 3 == 0;
      if (capped) config.sessions.max_memo_entries = 1 + rng.UniformInt(64);
      ExplainServer server;
      RegisterLoans(&server);
      AsyncFrontEnd frontend(&server, config);
      ExplainServer stateless;
      RegisterLoans(&stateless);
      const uint64_t session = frontend.OpenSession().ValueOrDie();

      const Vector base = train_.Row(rng.UniformInt(train_.num_rows()));
      std::vector<ExplainRequest> turns;
      const int num_turns = 6 + rng.UniformInt(5);
      for (int t = 0; t < num_turns; ++t) {
        ExplainRequest request;
        if (!turns.empty() && rng.Bernoulli(0.25)) {
          request = turns[rng.UniformInt(static_cast<int>(turns.size()))];
        } else {
          request = Request(kinds[rng.UniformInt(3)]);
          request.fidelity = static_cast<FidelityTier>(rng.UniformInt(5));
          request.seed = 17 + rng.UniformInt(2);
          request.instance = base;
          for (size_t j = 0; j < base.size(); ++j) {
            if (rng.Bernoulli(0.3))
              request.instance[j] =
                  train_.x()(rng.UniformInt(train_.num_rows()), j);
          }
        }
        turns.push_back(request);
        const ExplainResponse got =
            frontend.Submit(request, session).Get().ValueOrDie();
        const ExplainResponse want = stateless.Explain(request).ValueOrDie();
        EXPECT_EQ(PayloadHash(got), PayloadHash(want))
            << "turn " << t << " " << ExplainerKindName(request.kind) << " "
            << FidelityTierName(request.fidelity);
      }
      frontend.Drain();
      if (capped) {
        EXPECT_GT(frontend.sessions().GetStats().memo_misses,
                  static_cast<int64_t>(config.sessions.max_memo_entries));
      }
    }
  }
}

}  // namespace
}  // namespace async
}  // namespace serve
}  // namespace xai
