#include "xai/serve/async/session.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xai/core/check.h"
#include "xai/core/rng.h"
#include "xai/core/telemetry.h"
#include "xai/core/timer.h"
#include "xai/core/trace.h"
#include "xai/explain/counterfactual/counterfactual.h"
#include "xai/explain/counterfactual/dice.h"
#include "xai/explain/shapley/value_function.h"
#include "xai/model/serialization.h"

namespace xai {
namespace serve {
namespace async {
namespace {

/// \brief Cross-instance coalition memo around any CoalitionGame.
///
/// Correctness rests on MarginalFeatureGame's structure: v_x(S) reads the
/// instance only at coordinates in S (everything else comes from the
/// background), so the key (model_fp, background_fp, S, x|S) fully
/// determines the value. Two instances that agree on S share the entry and
/// the reused value is bit-identical to recomputation — the memo changes
/// cost, never content.
class SessionMemoGame : public CoalitionGame {
 public:
  SessionMemoGame(const CoalitionGame* inner, uint64_t model_fp,
                  uint64_t background_fp, const Vector& instance,
                  std::unordered_map<uint64_t, double>* memo,
                  std::mutex* memo_mu, size_t max_entries, int64_t* hits,
                  int64_t* misses)
      : inner_(inner),
        model_fp_(model_fp),
        background_fp_(background_fp),
        instance_(instance),
        memo_(memo),
        memo_mu_(memo_mu),
        max_entries_(max_entries),
        hits_(hits),
        misses_(misses) {}

  int num_players() const override { return inner_->num_players(); }

  double Value(uint64_t coalition) const override {
    double value = 0.0;
    Values({&coalition, 1}, {&value, 1});
    return value;
  }

  /// Probes the block under one lock, sends the misses to the inner game as
  /// one block (a tree game scores them together), and stores them under
  /// one lock. A key already memoized, or repeated inside the block, is a
  /// hit, as it would be for the masks one by one.
  void Values(std::span<const uint64_t> masks,
              std::span<double> out) const override {
    std::vector<uint64_t> keys(masks.size());
    for (size_t i = 0; i < masks.size(); ++i) keys[i] = KeyFor(masks[i]);
    // Distinct missing keys, their masks, and for each position the miss
    // that answers it (-1: answered from the memo).
    std::vector<uint64_t> miss_keys, miss_masks;
    std::vector<int64_t> miss_of(masks.size(), -1);
    std::unordered_map<uint64_t, int64_t> first_miss;
    int64_t hits = 0;
    {
      std::lock_guard<std::mutex> lock(*memo_mu_);
      for (size_t i = 0; i < masks.size(); ++i) {
        auto it = memo_->find(keys[i]);
        if (it != memo_->end()) {
          out[i] = it->second;
          ++hits;
          continue;
        }
        auto [first, fresh] = first_miss.emplace(
            keys[i], static_cast<int64_t>(miss_keys.size()));
        if (fresh) {
          miss_keys.push_back(keys[i]);
          miss_masks.push_back(masks[i]);
        } else {
          ++hits;
        }
        miss_of[i] = first->second;
      }
      *hits_ += hits;
    }
    if (hits > 0) XAI_COUNTER_ADD("serve/session_memo_hits", hits);
    if (miss_keys.empty()) return;

    std::vector<double> values(miss_keys.size());
    inner_->Values(miss_masks, values);
    {
      std::lock_guard<std::mutex> lock(*memo_mu_);
      *misses_ += static_cast<int64_t>(miss_keys.size());
      // Bounded: past the cap the memo stops growing but stays readable.
      for (size_t k = 0; k < miss_keys.size(); ++k)
        if (memo_->size() < max_entries_)
          memo_->emplace(miss_keys[k], values[k]);
    }
    XAI_COUNTER_ADD("serve/session_memo_misses",
                    static_cast<int64_t>(miss_keys.size()));
    for (size_t i = 0; i < masks.size(); ++i)
      if (miss_of[i] >= 0) out[i] = values[miss_of[i]];
  }

 private:
  uint64_t KeyFor(uint64_t coalition) const {
    // (model_fp, background_fp, S, x restricted to S), hashed over raw
    // little-endian words. At most 3 + 64 words on the stack.
    uint64_t words[67];
    size_t n = 0;
    words[n++] = model_fp_;
    words[n++] = background_fp_;
    words[n++] = coalition;
    for (int i = 0; i < num_players(); ++i) {
      if ((coalition >> i) & 1ull) {
        uint64_t bits;
        std::memcpy(&bits, &instance_[i], sizeof(bits));
        words[n++] = bits;
      }
    }
    return ContentHash64(words, n * sizeof(uint64_t));
  }

  const CoalitionGame* inner_;
  const uint64_t model_fp_;
  const uint64_t background_fp_;
  const Vector& instance_;
  std::unordered_map<uint64_t, double>* memo_;
  std::mutex* memo_mu_;
  const size_t max_entries_;
  int64_t* hits_;
  int64_t* misses_;
};

}  // namespace

SessionManager::SessionManager(ExplainServer* server, const Config& config)
    : server_(server), config_(config) {
  XAI_CHECK_MSG(server_ != nullptr, "SessionManager needs a server");
}

Result<uint64_t> SessionManager::OpenSession(int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.max_sessions > 0 &&
      static_cast<int>(sessions_.size()) >= config_.max_sessions)
    return Status::Overloaded("session table full");
  auto session = std::make_shared<Session>();
  session->id = next_id_++;
  session->last_used_ns = now_ns;
  const uint64_t id = session->id;
  sessions_.emplace(id, std::move(session));
  ++opened_;
  XAI_COUNTER_INC("serve/sessions_opened");
  return id;
}

Status SessionManager::CloseSession(uint64_t session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end())
    return Status::NotFound("no session " + std::to_string(session_id));
  RetireLocked(*it->second);
  sessions_.erase(it);
  return Status::OK();
}

void SessionManager::ExpireIdle(int64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now_ns - it->second->last_used_ns > config_.session_ttl_ns) {
      RetireLocked(*it->second);
      it = sessions_.erase(it);
      ++expired_;
      XAI_COUNTER_INC("serve/sessions_expired");
    } else {
      ++it;
    }
  }
}

void SessionManager::RetireLocked(Session& session) {
  // A turn may still be running against this session — it holds its own
  // shared_ptr, and close/expire can arrive from the front end's caller
  // threads. The counters are only ever mutated under memo_mu, so lock it
  // for the fold; increments landing after the fold are dropped from the
  // lifetime totals (stats drift on a closed session, never corruption).
  std::lock_guard<std::mutex> memo_lock(session.memo_mu);
  retired_memo_hits_ += session.memo_hits;
  retired_memo_misses_ += session.memo_misses;
}

Result<ExplainResponse> SessionManager::Explain(
    uint64_t session_id, const ExplainRequest& request, int64_t now_ns) {
  std::shared_ptr<Session> session_ref;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end())
      return Status::NotFound("no session " +
                              std::to_string(session_id));
    it->second->last_used_ns = now_ns;
    // The turn owns a reference: CloseSession/ExpireIdle may erase the map
    // entry concurrently (front-end caller threads), but the session
    // outlives the turn and is freed when this reference drops.
    session_ref = it->second;
  }
  Session* session = session_ref.get();

  // TreeSHAP / LIME / Anchors have no cross-turn state worth keeping; the
  // stateless pipeline (with its global cache) serves them.
  if (request.kind == ExplainerKind::kTreeShap ||
      request.kind == ExplainerKind::kLime ||
      request.kind == ExplainerKind::kAnchors)
    return server_->Explain(request);

  // The stateless pipeline's entry (start time, trace id, admission). The
  // session's state stands in for the cache and the batcher; every outcome
  // completes through the server's funnel.
  BatchJob job;
  job.request = request;
  Status admitted = server_->Enter(&job, /*hints=*/nullptr);
  if (!admitted.ok()) {
    Result<ExplainResponse> failed = admitted;
    server_->Finish(job, /*batch=*/nullptr, &failed);
    return admitted;
  }

  // Exact repeat within the dialogue: answer from the session's own
  // response memo (the global cache is deliberately not consulted),
  // completed like a cache hit.
  if (request.use_cache) {
    auto it = session->responses.find(job.key);
    if (it != session->responses.end()) {
      Result<ExplainResponse> response = *it->second;
      response.ValueOrDie().cache_hit = true;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++reuse_answers_;
      }
      XAI_COUNTER_INC("serve/session_reuse_answers");
      server_->Finish(job, /*batch=*/nullptr, &response);
      return response;
    }
  }

  // The turn runs inline and completes as a one-job batch that never
  // queued, so its evaluations and compute time stay its own.
  RequestBatcher::CompletionInfo batch;
  batch.batch_size = 1;
  batch.enqueue_ns = batch.batch_start_ns = MonotonicNanos();
  Result<ExplainResponse> result = Status::Internal("unreachable");
  {
    XAI_TRACE_CONTEXT(job.request.trace);
    result = job.plan.algorithm == ExplainerKind::kCounterfactual
                 ? ExplainCounterfactual(session, job)
                 : ExplainShapley(session, job);
  }
  batch.done_ns = MonotonicNanos();
  if (result.ok())
    result.ValueOrDie().provenance.compute_ms =
        static_cast<double>(batch.done_ns - batch.batch_start_ns) / 1e6;
  server_->Finish(job, &batch, &result);
  if (result.ok() && request.use_cache)
    session->responses.emplace(
        job.key, std::make_shared<const ExplainResponse>(result.ValueOrDie()));
  return result;
}

Result<ExplainResponse> SessionManager::ExplainShapley(Session* session,
                                                       const BatchJob& job) {
  const ExplainRequest& request = job.request;
  const ModelEntry& entry = *job.entry;
  ExplainResponse response = ExplainServer::NewResponse(job);
  MarginalFeatureGame inner(*entry.model, request.instance,
                            entry.background->x());
  SessionMemoGame game(&inner, entry.fingerprint,
                       entry.background_fingerprint, request.instance,
                       &session->memo, &session->memo_mu,
                       config_.max_memo_entries, &session->memo_hits,
                       &session->memo_misses);
  XAI_RETURN_NOT_OK(ExplainServer::ExplainShapley(job, game, &response));
  // Only coalitions the memo could not answer touched the model.
  response.provenance.used_evals =
      inner.num_evaluations() * entry.background->num_rows();
  return response;
}

Result<ExplainResponse> SessionManager::ExplainCounterfactual(
    Session* session, const BatchJob& job) {
  const ExplainRequest& request = job.request;
  const ModelEntry& entry = *job.entry;
  const TierPlan& plan = job.plan;
  ExplainResponse response = ExplainServer::NewResponse(job);

  const PredictFn predict = AsPredictFn(*entry.model);
  CounterfactualEvaluator evaluator(*entry.background);
  std::vector<PooledCandidate>& pool = session->pool[entry.fingerprint];

  // Why-not / what-if fast path: re-validate the dialogue's previous
  // counterfactuals against *this* turn's instance and target class. A
  // pooled candidate costs one model call to check vs. a full random-walk
  // search to rediscover.
  std::vector<Counterfactual> valid;
  for (const PooledCandidate& candidate : pool) {
    Counterfactual cf =
        evaluator.Evaluate(predict, request.instance, candidate.x,
                           request.desired_class, plan.dice_config.threshold);
    if (cf.valid) valid.push_back(std::move(cf));
  }
  const int64_t pool_calls = static_cast<int64_t>(pool.size());

  if (static_cast<int>(valid.size()) >= plan.dice_config.k) {
    // Deterministic selection: proximity, then content hash as tiebreak.
    std::sort(valid.begin(), valid.end(),
              [](const Counterfactual& a, const Counterfactual& b) {
                if (a.proximity != b.proximity)
                  return a.proximity < b.proximity;
                return ContentHash64(a.x) < ContentHash64(b.x);
              });
    valid.resize(plan.dice_config.k);
    response.counterfactuals = std::move(valid);
    response.provenance.used_evals = pool_calls;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++reuse_answers_;
    }
    XAI_COUNTER_INC("serve/session_reuse_answers");
    return response;
  }

  // Pool cannot fund k candidates: fresh search, then bank every valid
  // counterfactual for the next turn (deduplicated by content).
  ActionabilitySpec spec = ActionabilitySpec::AllFree(*entry.background);
  Rng rng(request.seed);
  XAI_ASSIGN_OR_RETURN(
      DiceResult dice,
      DiceCounterfactuals(predict, request.instance, request.desired_class,
                          evaluator, spec, plan.dice_config, &rng));
  for (const Counterfactual& cf : dice.counterfactuals) {
    if (!cf.valid) continue;
    if (pool.size() >= config_.max_pool_candidates) break;
    const uint64_t hash = ContentHash64(cf.x);
    bool known = false;
    for (const PooledCandidate& candidate : pool)
      if (candidate.content_hash == hash) {
        known = true;
        break;
      }
    if (!known) pool.push_back(PooledCandidate{cf.x, hash});
  }
  response.counterfactuals = std::move(dice.counterfactuals);
  response.provenance.used_evals = pool_calls + plan.planned_evals;
  return response;
}

SessionManager::Stats SessionManager::GetStats() const {
  Stats stats;
  std::lock_guard<std::mutex> lock(mu_);
  stats.active_sessions = static_cast<int>(sessions_.size());
  stats.opened = opened_;
  stats.expired = expired_;
  stats.reuse_answers = reuse_answers_;
  stats.memo_hits = retired_memo_hits_;
  stats.memo_misses = retired_memo_misses_;
  for (const auto& [id, session] : sessions_) {
    std::lock_guard<std::mutex> memo_lock(session->memo_mu);
    stats.memo_hits += session->memo_hits;
    stats.memo_misses += session->memo_misses;
  }
  const int64_t total = stats.memo_hits + stats.memo_misses;
  stats.memo_hit_rate =
      total > 0 ? static_cast<double>(stats.memo_hits) /
                      static_cast<double>(total)
                : 0.0;
  return stats;
}

}  // namespace async
}  // namespace serve
}  // namespace xai
