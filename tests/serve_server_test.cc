#include "xai/serve/explain_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/core/telemetry.h"
#include "xai/core/trace.h"
#include "xai/data/synthetic.h"
#include "xai/explain/shapley/kernel_shap.h"
#include "xai/explain/shapley/tree_shap.h"
#include "xai/explain/shapley/value_function.h"
#include "xai/model/gbdt.h"
#include "xai/model/logistic_regression.h"
#include "xai/model/serialization.h"
#include "xai/serve/async/admission.h"
#include "xai/serve/async/session.h"

namespace xai {
namespace serve {
namespace {

class ExplainServerTest : public ::testing::Test {
 protected:
  ExplainServerTest()
      : train_(MakeLoans(300, 3)), background_(MakeLoans(48, 4)) {
    GbdtModel::Config config;
    config.n_trees = 10;
    gbdt_text_ =
        SerializeModel(GbdtModel::Train(train_, config).ValueOrDie());
    instance_ = train_.Row(0);
  }

  void TearDown() override { SetNumThreads(1); }

  void RegisterGbdt(ExplainServer* server, const std::string& name = "loans") {
    server->registry().Register(name, gbdt_text_, background_).ValueOrDie();
  }

  ExplainRequest Request(ExplainerKind kind) const {
    ExplainRequest request;
    request.model = "loans";
    request.instance = instance_;
    request.kind = kind;
    request.seed = 17;
    return request;
  }

  Dataset train_;
  Dataset background_;
  std::string gbdt_text_;
  Vector instance_;
};

/// ExplainAsync as a blocking call: a non-OK return is the result (the
/// callback then never runs).
Result<ExplainResponse> ExplainAsyncAndWait(
    ExplainServer* server, const ExplainRequest& request,
    ExplainServer::AsyncHints hints = ExplainServer::AsyncHints()) {
  auto delivered = std::make_shared<std::promise<Result<ExplainResponse>>>();
  auto future = delivered->get_future();
  Status submitted = server->ExplainAsync(
      request,
      [delivered](Result<ExplainResponse> result) {
        delivered->set_value(std::move(result));
      },
      std::move(hints));
  if (!submitted.ok()) return submitted;
  return future.get();
}

TEST_F(ExplainServerTest, TreeShapMatchesDirectCall) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto response = server.Explain(Request(ExplainerKind::kTreeShap))
                      .ValueOrDie();

  auto entry = server.registry().Find("loans");
  AttributionExplanation direct = TreeShap(*entry->tree_view, instance_);
  ASSERT_EQ(response.attribution.attributions.size(),
            direct.attributions.size());
  for (size_t i = 0; i < direct.attributions.size(); ++i)
    EXPECT_DOUBLE_EQ(response.attribution.attributions[i],
                     direct.attributions[i]);
  EXPECT_EQ(response.served_tier, FidelityTier::kExact);
  EXPECT_FALSE(response.degraded);
}

// kTreeShap runs on the registry's prebuilt flat kernel with a per-thread
// path arena. At one compute thread every request runs on the batch worker,
// so after one warm-up request each uncached request reuses that arena and
// none grows it: steady-state TreeSHAP serving allocates no path storage.
TEST_F(ExplainServerTest, TreeShapArenaIsReusedInSteadyState) {
  if (!XAI_TELEMETRY) GTEST_SKIP() << "built with XAI_TELEMETRY=0";
  SetNumThreads(1);
  ExplainServer server;
  RegisterGbdt(&server);
  ExplainRequest request = Request(ExplainerKind::kTreeShap);
  request.use_cache = false;  // Run every request, never the cache.
  server.Explain(request).ValueOrDie();

  telemetry::Counter* reuse =
      telemetry::Registry::Global().GetCounter("tree_shap/arena_reuse");
  telemetry::Counter* grow =
      telemetry::Registry::Global().GetCounter("tree_shap/arena_grow");
  const int64_t reuse_before = reuse->Get();
  const int64_t grow_before = grow->Get();
  constexpr int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    request.instance = train_.Row(i % train_.num_rows());
    server.Explain(request).ValueOrDie();
  }
  EXPECT_EQ(reuse->Get() - reuse_before, kRequests);
  EXPECT_EQ(grow->Get() - grow_before, 0);
}

TEST_F(ExplainServerTest, KernelShapMatchesDirectCall) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto response = server.Explain(Request(ExplainerKind::kKernelShap))
                      .ValueOrDie();

  auto entry = server.registry().Find("loans");
  MarginalFeatureGame game(AsPredictFn(*entry->model), instance_,
                           background_.x());
  KernelShapConfig config;
  config.coalition_budget = 2048;  // The kHigh rung.
  Rng rng(17);
  auto direct = KernelShap(game, config, &rng).ValueOrDie();
  ASSERT_EQ(response.attribution.attributions.size(),
            direct.attributions.size());
  for (size_t i = 0; i < direct.attributions.size(); ++i)
    EXPECT_DOUBLE_EQ(response.attribution.attributions[i],
                     direct.attributions[i]);
}

TEST_F(ExplainServerTest, RepeatRequestHitsCacheWithIdenticalPayload) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kKernelShap);

  auto first = server.Explain(request).ValueOrDie();
  EXPECT_FALSE(first.cache_hit);
  auto second = server.Explain(request).ValueOrDie();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(PayloadHash(first), PayloadHash(second));
  EXPECT_GE(server.cache().GetStats().hits, 1);
}

TEST_F(ExplainServerTest, CacheSeparatesSeedInstanceAndKind) {
  ExplainServer server;
  RegisterGbdt(&server);

  auto request = Request(ExplainerKind::kKernelShap);
  server.Explain(request).ValueOrDie();

  auto other_seed = request;
  other_seed.seed = 18;
  EXPECT_FALSE(server.Explain(other_seed).ValueOrDie().cache_hit);

  auto other_instance = request;
  other_instance.instance = train_.Row(1);
  EXPECT_FALSE(server.Explain(other_instance).ValueOrDie().cache_hit);

  auto other_kind = request;
  other_kind.kind = ExplainerKind::kSamplingShapley;
  EXPECT_FALSE(server.Explain(other_kind).ValueOrDie().cache_hit);
}

TEST_F(ExplainServerTest, CacheIsTenantScoped) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kKernelShap);
  request.tenant = "acme";
  EXPECT_FALSE(server.Explain(request).ValueOrDie().cache_hit);

  // Identical request from a different tenant must miss: on the deferred
  // wire path a hit is served from the client-supplied instance hash alone,
  // so cross-tenant hits would let one tenant read another's explanations.
  auto other_tenant = request;
  other_tenant.tenant = "globex";
  EXPECT_FALSE(server.Explain(other_tenant).ValueOrDie().cache_hit);

  // Same tenant keeps its own warm path.
  EXPECT_TRUE(server.Explain(request).ValueOrDie().cache_hit);

  // Empty tenant and its normalized form share one cell.
  auto unlabeled = request;
  unlabeled.tenant = "";
  EXPECT_FALSE(server.Explain(unlabeled).ValueOrDie().cache_hit);
  auto normalized = request;
  normalized.tenant = "default";
  EXPECT_TRUE(server.Explain(normalized).ValueOrDie().cache_hit);
}

TEST_F(ExplainServerTest, CacheOptOutNeverHits) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kKernelShap);
  request.use_cache = false;
  server.Explain(request).ValueOrDie();
  auto again = server.Explain(request).ValueOrDie();
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(server.cache().GetStats().entries, 0);
}

TEST_F(ExplainServerTest, RegistryReloadKeepsCacheWarm) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kKernelShap);
  server.Explain(request).ValueOrDie();

  // Reload the identical snapshot: same fingerprint, so the cache stays hot.
  RegisterGbdt(&server);
  EXPECT_TRUE(server.Explain(request).ValueOrDie().cache_hit);
}

TEST_F(ExplainServerTest, TightDeadlineDegradesDeterministically) {
  // 12 features so the Shapley rungs are well separated (2^12 - 2 > 2048).
  auto [data, gt] = MakeLogisticData(400, 12, 5);
  (void)gt;
  auto model = LogisticRegressionModel::Train(data).ValueOrDie();

  ExplainServer server;
  server.registry()
      .Register("wide", SerializeModel(model),
                Dataset(data.schema(),
                        Matrix(data.x()),  // full copy as background
                        data.y()))
      .ValueOrDie();

  ExplainRequest request;
  request.model = "wide";
  request.instance = data.Row(0);
  request.kind = ExplainerKind::kKernelShap;
  request.fidelity = FidelityTier::kHigh;
  request.deadline_ms = 40.0;

  auto response = server.Explain(request).ValueOrDie();
  EXPECT_TRUE(response.degraded);
  EXPECT_GT(static_cast<int>(response.served_tier),
            static_cast<int>(FidelityTier::kHigh));
  // The tier decision is pure arithmetic: the same request always lands on
  // the same rung.
  auto repeat = server.Explain(request).ValueOrDie();
  EXPECT_EQ(repeat.served_tier, response.served_tier);
  EXPECT_EQ(PayloadHash(repeat), PayloadHash(response));

  // Without a deadline the requested tier is served.
  request.deadline_ms = 0.0;
  auto full = server.Explain(request).ValueOrDie();
  EXPECT_FALSE(full.degraded);
  EXPECT_EQ(full.served_tier, FidelityTier::kHigh);
  EXPECT_GT(full.planned_evals, response.planned_evals);
}

TEST_F(ExplainServerTest, DegradationRefusedFailsTheRequest) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kKernelShap);
  request.deadline_ms = 0.1;  // Below the cost model's fixed overhead.
  request.allow_degradation = false;
  auto result = server.Explain(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST_F(ExplainServerTest, UnknownModelAndSchemaMismatchAreErrors) {
  ExplainServer server;
  RegisterGbdt(&server);

  auto request = Request(ExplainerKind::kKernelShap);
  request.model = "nope";
  EXPECT_EQ(server.Explain(request).status().code(), StatusCode::kNotFound);

  request = Request(ExplainerKind::kKernelShap);
  request.instance = {1.0};
  EXPECT_EQ(server.Explain(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExplainServerTest, TreeShapOnNonTreeModelIsInvalid) {
  ExplainServer server;
  auto logistic = LogisticRegressionModel::Train(train_).ValueOrDie();
  server.registry()
      .Register("logit", SerializeModel(logistic), background_)
      .ValueOrDie();
  auto request = Request(ExplainerKind::kTreeShap);
  request.model = "logit";
  EXPECT_EQ(server.Explain(request).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ExplainServerTest, AsyncPathMatchesSync) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kSamplingShapley);
  request.use_cache = false;

  auto sync = server.Explain(request).ValueOrDie();
  auto async = ExplainAsyncAndWait(&server, request).ValueOrDie();
  EXPECT_EQ(PayloadHash(sync), PayloadHash(async));
}

TEST_F(ExplainServerTest, EveryExplainerKindServes) {
  ExplainServer server;
  RegisterGbdt(&server);
  for (ExplainerKind kind :
       {ExplainerKind::kTreeShap, ExplainerKind::kKernelShap,
        ExplainerKind::kSamplingShapley, ExplainerKind::kExactShapley,
        ExplainerKind::kLime, ExplainerKind::kAnchors,
        ExplainerKind::kCounterfactual}) {
    auto request = Request(kind);
    request.fidelity = FidelityTier::kMinimal;  // Keep the test fast.
    auto result = server.Explain(request);
    ASSERT_TRUE(result.ok()) << ExplainerKindName(kind) << ": "
                             << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie().kind, kind);
  }
}

TEST_F(ExplainServerTest, ResponsesAreBitIdenticalAcrossThreadCounts) {
  const std::vector<ExplainerKind> kinds = {
      ExplainerKind::kTreeShap, ExplainerKind::kKernelShap,
      ExplainerKind::kSamplingShapley, ExplainerKind::kLime};

  std::map<ExplainerKind, uint64_t> reference;
  for (int threads : {1, 4, 8}) {
    SetNumThreads(threads);
    ExplainServer server;  // Fresh cache per thread count.
    RegisterGbdt(&server);
    for (ExplainerKind kind : kinds) {
      auto request = Request(kind);
      request.fidelity = FidelityTier::kReduced;
      uint64_t hash =
          PayloadHash(server.Explain(request).ValueOrDie());
      auto [it, inserted] = reference.emplace(kind, hash);
      EXPECT_EQ(it->second, hash)
          << ExplainerKindName(kind) << " differs at " << threads
          << " threads";
    }
  }
}

TEST_F(ExplainServerTest, ConcurrentClientsGetConsistentAnswers) {
  SetNumThreads(4);
  ExplainServer server;
  RegisterGbdt(&server);

  auto request = Request(ExplainerKind::kSamplingShapley);
  request.fidelity = FidelityTier::kMinimal;
  const uint64_t expected =
      PayloadHash(server.Explain(request).ValueOrDie());
  server.cache().Clear();

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::atomic<int> consistent{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 4; ++i) {
        auto result = server.Explain(request);
        if (result.ok() &&
            PayloadHash(result.ValueOrDie()) == expected)
          ++consistent;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(consistent, kClients * 4);
  // Coalescing + caching: far fewer executions than requests.
  auto stats = server.cache().GetStats();
  EXPECT_GE(stats.hits, 1);
}

TEST_F(ExplainServerTest, ProvenanceIsCompleteOnMissAndHit) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kKernelShap);

  auto miss = server.Explain(request).ValueOrDie();
  const ExplanationProvenance& mp = miss.provenance;
  EXPECT_TRUE(mp.complete);
  EXPECT_NE(mp.trace_id, 0u);
  EXPECT_NE(mp.root_span_id, 0u);
  EXPECT_FALSE(mp.cache_hit);
  EXPECT_FALSE(mp.coalesced);
  EXPECT_EQ(mp.tenant, "default");
  EXPECT_EQ(mp.model, "loans");
  EXPECT_STREQ(mp.kind, ExplainerKindName(ExplainerKind::kKernelShap));
  EXPECT_STREQ(mp.served_tier, FidelityTierName(miss.served_tier));
  EXPECT_GT(mp.planned_evals, 0);
  EXPECT_GT(mp.used_evals, 0);
  EXPECT_STRNE(mp.simd_backend, "");
  EXPECT_GE(mp.batch_size, 1);
  EXPECT_GT(mp.compute_ms, 0.0);
  EXPECT_GE(mp.total_ms, mp.compute_ms);

  auto hit = server.Explain(request).ValueOrDie();
  ASSERT_TRUE(hit.cache_hit);
  const ExplanationProvenance& hp = hit.provenance;
  EXPECT_TRUE(hp.complete);
  EXPECT_TRUE(hp.cache_hit);
  // The hit is a new request: its own trace identity, but the payload and
  // its producing-execution facts are shared with the miss.
  EXPECT_NE(hp.trace_id, 0u);
  EXPECT_NE(hp.trace_id, mp.trace_id);
  EXPECT_NE(hp.root_span_id, mp.root_span_id);
  EXPECT_EQ(hp.used_evals, 0);
  EXPECT_EQ(hp.compute_ms, 0.0);
  EXPECT_EQ(hp.queue_ms, 0.0);
  EXPECT_STREQ(hp.algorithm, mp.algorithm);
  EXPECT_EQ(PayloadHash(hit), PayloadHash(miss));
}

TEST_F(ExplainServerTest, CallerTraceIdPropagatesToProvenance) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kTreeShap);
  request.trace.trace_id = 1234;
  auto response = server.Explain(request).ValueOrDie();
  EXPECT_EQ(response.provenance.trace_id, 1234u);
  EXPECT_NE(response.provenance.root_span_id, 0u);

  // Server-assigned ids come from a seeded deterministic stream: two
  // servers with the same seed assign the same first id.
  ExplainServer::Config config;
  config.trace_seed = 99;
  ExplainServer a(config);
  ExplainServer b(config);
  RegisterGbdt(&a);
  RegisterGbdt(&b);
  auto from_a = a.Explain(Request(ExplainerKind::kTreeShap)).ValueOrDie();
  auto from_b = b.Explain(Request(ExplainerKind::kTreeShap)).ValueOrDie();
  EXPECT_EQ(from_a.provenance.trace_id, from_b.provenance.trace_id);
  EXPECT_NE(from_a.provenance.trace_id, 0u);
}

TEST_F(ExplainServerTest, TenantSloAccountsMissesDegradationAndErrors) {
  ExplainServer server;
  RegisterGbdt(&server);

  // Unmeetable deadline: degrades to a cheaper rung and still misses.
  auto slow = Request(ExplainerKind::kKernelShap);
  slow.tenant = "acme";
  slow.deadline_ms = 1e-4;
  auto degraded = server.Explain(slow).ValueOrDie();
  EXPECT_TRUE(degraded.degraded);
  EXPECT_FALSE(degraded.deadline_met);
  EXPECT_FALSE(degraded.provenance.deadline_met);

  auto ok = Request(ExplainerKind::kTreeShap);
  ok.tenant = "acme";
  (void)server.Explain(ok).ValueOrDie();

  auto bad = Request(ExplainerKind::kTreeShap);
  bad.tenant = "acme";
  bad.model = "missing";
  EXPECT_FALSE(server.Explain(bad).ok());

  std::map<std::pair<std::string, std::string>, TenantSloStats> by_key;
  for (const auto& s : server.slo().Snapshot())
    by_key[{s.tenant, s.model}] = s;

  ASSERT_TRUE(by_key.count({"acme", "loans"}));
  const TenantSloStats& loans = by_key[{"acme", "loans"}];
  EXPECT_EQ(loans.requests, 2);
  EXPECT_EQ(loans.deadline_misses, 1);
  EXPECT_EQ(loans.degraded, 1);
  EXPECT_EQ(loans.errors, 0);
  EXPECT_GT(loans.latency_p99_ms, 0.0);
  // 1 miss in 2 requests against a 99.9% target: budget blown many times
  // over.
  EXPECT_GT(loans.deadline_budget_used, 1.0);
  EXPECT_GT(loans.degradation_budget_used, 1.0);

  ASSERT_TRUE(by_key.count({"acme", "missing"}));
  const TenantSloStats& missing = by_key[{"acme", "missing"}];
  EXPECT_EQ(missing.requests, 1);
  EXPECT_EQ(missing.errors, 1);
  // Errors count against the deadline budget.
  EXPECT_GT(missing.deadline_budget_used, 1.0);
}

// ---- One accounting rule for every entry point and outcome ---------------

enum class Entry { kExplain, kExplainAsync };
enum class Outcome {
  kMiss,
  kHit,
  kCoalescedFollower,
  kUnknownModel,
  kTreeShapOnNonTree,
  kCorruptDeferred,
};

struct AccountingRow {
  Entry entry;
  Outcome outcome;
};

std::string RowName(const AccountingRow& row) {
  static const char* const kOutcomes[] = {
      "miss", "hit", "coalesced_follower", "unknown_model",
      "tree_shap_on_non_tree", "corrupt_deferred"};
  return std::string(row.entry == Entry::kExplain ? "Explain/"
                                                  : "ExplainAsync/") +
         kOutcomes[static_cast<int>(row.outcome)];
}

TenantSloStats SloCell(const ExplainServer& server, const std::string& tenant,
                       const std::string& model) {
  for (const auto& s : server.slo().Snapshot())
    if (s.tenant == tenant && s.model == model) return s;
  return TenantSloStats();
}

int64_t DeadlineMissCounter() {
  return telemetry::Registry::Global()
      .GetCounter("serve/deadline_misses")
      ->Get();
}

TEST_F(ExplainServerTest, EveryEntryAndOutcomeAccountsExactlyOnce) {
  const AccountingRow rows[] = {
      {Entry::kExplain, Outcome::kMiss},
      {Entry::kExplain, Outcome::kHit},
      {Entry::kExplain, Outcome::kCoalescedFollower},
      {Entry::kExplain, Outcome::kUnknownModel},
      {Entry::kExplain, Outcome::kTreeShapOnNonTree},
      {Entry::kExplainAsync, Outcome::kMiss},
      {Entry::kExplainAsync, Outcome::kHit},
      {Entry::kExplainAsync, Outcome::kCoalescedFollower},
      {Entry::kExplainAsync, Outcome::kUnknownModel},
      {Entry::kExplainAsync, Outcome::kTreeShapOnNonTree},
      {Entry::kExplainAsync, Outcome::kCorruptDeferred},
  };
  auto logistic = LogisticRegressionModel::Train(train_).ValueOrDie();
  const std::string logit_text = SerializeModel(logistic);
  uint64_t next_trace_id = 9001;

  for (const AccountingRow& row : rows) {
    SCOPED_TRACE(RowName(row));
    ExplainServer server;
    RegisterGbdt(&server);
    server.registry().Register("logit", logit_text, background_).ValueOrDie();

    // TreeSHAP never degrades, so a 100 ns deadline makes every request
    // that completes miss it without changing what is served.
    ExplainRequest request = Request(ExplainerKind::kTreeShap);
    request.tenant = "acme";
    request.deadline_ms = 1e-4;
    if (row.outcome == Outcome::kUnknownModel) request.model = "missing";
    if (row.outcome == Outcome::kTreeShapOnNonTree) request.model = "logit";
    if (row.outcome == Outcome::kHit) {
      ASSERT_TRUE(server.Explain(request).ok());  // Warm the cache.
    }

    const bool fails = row.outcome == Outcome::kUnknownModel ||
                       row.outcome == Outcome::kTreeShapOnNonTree ||
                       row.outcome == Outcome::kCorruptDeferred;
    const TenantSloStats before = SloCell(server, "acme", request.model);
    const int64_t misses_before = DeadlineMissCounter();
#if XAI_TELEMETRY
    telemetry::internal::ClearTraceEvents();
#endif

    // The follower row also runs its leader: both requests are accounted.
    std::vector<ExplainRequest> sent;
    sent.push_back(request);
    if (row.outcome == Outcome::kCoalescedFollower) sent.push_back(request);
    for (ExplainRequest& r : sent) r.trace.trace_id = next_trace_id++;

    std::vector<Result<ExplainResponse>> results;
    if (row.outcome == Outcome::kCoalescedFollower) {
      server.batcher()->Pause();
      std::vector<std::thread> clients;
      std::vector<std::promise<Result<ExplainResponse>>> delivered(2);
      for (int i = 0; i < 2; ++i) {
        clients.emplace_back([&, i] {
          delivered[i].set_value(row.entry == Entry::kExplain
                                     ? server.Explain(sent[i])
                                     : ExplainAsyncAndWait(&server, sent[i]));
        });
      }
      while (server.batcher()->queue_depth() < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      server.batcher()->Resume();
      for (auto& client : clients) client.join();
      for (auto& d : delivered) results.push_back(d.get_future().get());
    } else if (row.outcome == Outcome::kCorruptDeferred) {
      // Header-only request: the instance stays deferred, and the payload
      // fails its integrity check when the miss needs it.
      ExplainRequest deferred = sent[0];
      deferred.instance.clear();
      ExplainServer::AsyncHints hints;
      hints.instance_hash = ContentHash64(instance_);
      hints.deferred_count = static_cast<int64_t>(instance_.size());
      hints.materialize = [](Vector*) {
        return Status::InvalidArgument("corrupt instance payload");
      };
      results.push_back(ExplainAsyncAndWait(&server, deferred, hints));
    } else {
      results.push_back(row.entry == Entry::kExplain
                            ? server.Explain(sent[0])
                            : ExplainAsyncAndWait(&server, sent[0]));
    }

    const int64_t n = static_cast<int64_t>(sent.size());
    int64_t missed = 0;
    for (const auto& result : results) {
      ASSERT_EQ(result.ok(), !fails) << result.status().ToString();
      if (fails) continue;
      const ExplainResponse& response = result.ValueOrDie();
      EXPECT_FALSE(response.deadline_met);
      EXPECT_FALSE(response.degraded);
      EXPECT_EQ(response.latency_ms, response.provenance.total_ms);
      EXPECT_EQ(response.cache_hit, row.outcome == Outcome::kHit);
      if (!response.deadline_met) ++missed;
    }

    // Exactly one SloTracker entry per request, in the right column.
    const TenantSloStats after = SloCell(server, "acme", request.model);
    EXPECT_EQ(after.requests - before.requests, n);
    EXPECT_EQ(after.errors - before.errors, fails ? n : 0);
    EXPECT_EQ(after.shed - before.shed, 0);
    EXPECT_EQ(after.deadline_misses - before.deadline_misses, missed);
    EXPECT_EQ(after.cache_hits - before.cache_hits,
              row.outcome == Outcome::kHit ? n : 0);
    EXPECT_EQ(after.coalesced - before.coalesced,
              row.outcome == Outcome::kCoalescedFollower ? 1 : 0);

#if XAI_TELEMETRY
    EXPECT_EQ(DeadlineMissCounter() - misses_before, missed);
    // Exactly one root span per request, named for its outcome.
    std::vector<telemetry::TraceEvent> events;
    telemetry::internal::CollectTraceEvents(&events);
    for (const ExplainRequest& r : sent) {
      int ok_roots = 0;
      int error_roots = 0;
      for (const auto& e : events) {
        if (e.trace_id != r.trace.trace_id) continue;
        if (std::string(e.name) == "serve/request") ++ok_roots;
        if (std::string(e.name) == "serve/request_error") ++error_roots;
      }
      EXPECT_EQ(ok_roots, fails ? 0 : 1) << "trace " << r.trace.trace_id;
      EXPECT_EQ(error_roots, fails ? 1 : 0) << "trace " << r.trace.trace_id;
    }
#else
    (void)misses_before;
#endif
  }
}

TEST_F(ExplainServerTest, CoalescedFollowersLinkToLeaderTrace) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kKernelShap);
  request.fidelity = FidelityTier::kMinimal;

  // Hold the batch worker so identical submissions pile up and coalesce
  // into one batch (and one execution).
  constexpr int kDuplicates = 3;
  server.batcher()->Pause();
  std::vector<std::promise<Result<ExplainResponse>>> delivered(kDuplicates);
  for (int i = 0; i < kDuplicates; ++i) {
    ASSERT_TRUE(server
                    .ExplainAsync(request,
                                  [&delivered, i](Result<ExplainResponse> r) {
                                    delivered[i].set_value(std::move(r));
                                  })
                    .ok());
  }
  server.batcher()->Resume();

  std::vector<ExplainResponse> responses;
  for (auto& d : delivered)
    responses.push_back(d.get_future().get().ValueOrDie());

  int leaders = 0;
  uint64_t leader_trace = 0;
  for (const auto& r : responses) {
    EXPECT_TRUE(r.provenance.complete);
    EXPECT_EQ(r.provenance.batch_size, kDuplicates);
    if (!r.provenance.coalesced) {
      ++leaders;
      leader_trace = r.provenance.trace_id;
    }
  }
  ASSERT_EQ(leaders, 1);
  for (const auto& r : responses) {
    if (r.provenance.coalesced) {
      EXPECT_EQ(r.provenance.coalesced_onto, leader_trace);
      EXPECT_NE(r.provenance.trace_id, leader_trace);
      // A follower ran nothing: the leader's execution is billed once.
      EXPECT_EQ(r.provenance.used_evals, 0);
      EXPECT_EQ(r.provenance.compute_ms, 0.0);
    } else {
      EXPECT_GT(r.provenance.used_evals, 0);
    }
    EXPECT_EQ(PayloadHash(r), PayloadHash(responses[0]));
  }
}

TEST_F(ExplainServerTest, MetricsSnapshotRendersSloStandings) {
  ExplainServer server;
  RegisterGbdt(&server);
  auto request = Request(ExplainerKind::kTreeShap);
  request.tenant = "acme";
  (void)server.Explain(request).ValueOrDie();

  const std::string prom =
      server.MetricsSnapshot(ExplainServer::MetricsFormat::kPrometheus);
  EXPECT_NE(prom.find("xai_slo_requests_total{tenant=\"acme\""),
            std::string::npos);
  EXPECT_NE(prom.find("xai_slo_deadline_budget_used"), std::string::npos);
  EXPECT_NE(prom.find("xai_slo_latency_ms"), std::string::npos);

  const std::string jsonl =
      server.MetricsSnapshot(ExplainServer::MetricsFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"type\":\"slo\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"tenant\":\"acme\""), std::string::npos);
}

TEST_F(ExplainServerTest, MetricsSnapshotRendersAttachedAdmissionAndSessions) {
  ExplainServer server;
  RegisterGbdt(&server);
  async::AdmissionController admission(async::AdmissionController::Config{});
  async::SessionManager sessions(&server);
  server.AttachAdmission(&admission);
  server.AttachSessions(&sessions);

  ASSERT_EQ(admission.Admit("acme", 0),
            async::AdmissionController::Outcome::kAdmitted);
  admission.OnComplete("acme");
  const uint64_t session = sessions.OpenSession(0).ValueOrDie();
  auto request = Request(ExplainerKind::kKernelShap);
  (void)sessions.Explain(session, request, 0).ValueOrDie();

  const std::string prom =
      server.MetricsSnapshot(ExplainServer::MetricsFormat::kPrometheus);
  EXPECT_NE(prom.find("xai_admission_admitted_total{tenant=\"acme\""),
            std::string::npos);
  EXPECT_NE(prom.find("xai_admission_tokens_available"), std::string::npos);
  EXPECT_NE(prom.find("xai_sessions_active 1"), std::string::npos);
  EXPECT_NE(prom.find("xai_sessions_memo_misses_total"), std::string::npos);

  const std::string jsonl =
      server.MetricsSnapshot(ExplainServer::MetricsFormat::kJsonl);
  EXPECT_NE(jsonl.find("\"type\":\"admission\""), std::string::npos);
  EXPECT_NE(jsonl.find("{\"type\":\"sessions\",\"active\":1"),
            std::string::npos);

  // Detached, the sections disappear (and dangling reads are impossible).
  server.AttachAdmission(nullptr);
  server.AttachSessions(nullptr);
  const std::string detached =
      server.MetricsSnapshot(ExplainServer::MetricsFormat::kPrometheus);
  EXPECT_EQ(detached.find("xai_admission_"), std::string::npos);
  EXPECT_EQ(detached.find("xai_sessions_"), std::string::npos);
}

}  // namespace
}  // namespace serve
}  // namespace xai
