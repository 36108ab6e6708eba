// Serving workloads: serve_miss and serve_hit.
//
// One client thread drives AsyncFrontEnd::SubmitWire in a closed loop:
// each op is one encoded request frame, and the op ends when its response
// frame is delivered to the client's future. A run alternates two kinds of
// slice until its time is used up:
//   - latency slices, one request in flight (p50/p90);
//   - throughput slices, `in_flight` requests in flight, deep enough that
//     the batcher's queue never empties (ops/s, CPU per op). Timing stops
//     at the slice's N-th completion; the requests still in flight then
//     drain untimed, so no slice measures a ramp-down.
// Responses are checked after each slice, outside the timed window, so the
// client's own checking never competes with the server for the CPU.

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/core/telemetry.h"
#include "xai/core/trace.h"
#include "xai/data/synthetic.h"
#include "xai/explain/lime.h"
#include "xai/explain/shapley/kernel_shap.h"
#include "xai/explain/shapley/tree_shap.h"
#include "xai/explain/shapley/value_function.h"
#include "xai/model/gbdt.h"
#include "xai/model/serialization.h"
#include "xai/serve/async/frontend.h"
#include "xai/serve/async/wire.h"
#include "xai/serve/explain_server.h"

namespace perfbench {
namespace {

using xai::Dataset;
using xai::Vector;
using xai::serve::ExplainerKind;
using xai::serve::ExplainRequest;
using xai::serve::ExplainServer;
using xai::serve::FidelityTier;
using xai::serve::async::AsyncFrontEnd;
using xai::serve::async::FrameFuture;
using xai::serve::async::FrameType;

constexpr const char* kModel = "loans";
constexpr int kNumKinds = 3;
const ExplainerKind kKinds[kNumKinds] = {
    ExplainerKind::kTreeShap, ExplainerKind::kKernelShap,
    ExplainerKind::kLime};
const char* const kKindNames[kNumKinds] = {"tree_shap", "kernel_shap",
                                           "lime"};

struct Shape {
  int train_rows;
  int background_rows;
  int trees;
  int depth;
  int tenants;
  /// serve_hit: requests whose explanations set-up computes.
  int working_set;
  /// Ops per latency slice (one in flight) and per throughput slice.
  int latency_slice;
  int throughput_slice;
  int in_flight;
  int setup_reps;
  /// Requests per kind the traced run re-runs directly on the explainers.
  int direct_per_kind;
};

Shape ShapeFor(bool hit, bool smoke) {
  if (smoke) {
    return Shape{300, 16, 10, 3, 2, 24, 12, 48, 8, 2, 3};
  }
  // 100 trees of depth 3, a 64-row background, four tenants. A latency
  // slice and a throughput slice take roughly 0.2 s and 0.8 s (serve_miss)
  // or 0.06 s and 0.1 s (serve_hit) on a 4-core machine, so a run yields
  // dozens of slices to take medians over.
  if (hit) return Shape{2000, 64, 100, 3, 4, 384, 4000, 10000, 64, 7, 0};
  return Shape{2000, 64, 100, 3, 4, 0, 100, 400, 32, 15, 24};
}

/// Seeded request stream: request i is a pure function of (seed, i).
class RequestSource {
 public:
  RequestSource(uint64_t seed, int tenants) : seed_(seed), tenants_(tenants) {}

  /// The request and the index of its explainer kind in kKinds.
  std::pair<ExplainRequest, int> Make(int64_t i) {
    xai::Rng rng(Mix(seed_, static_cast<uint64_t>(i)));
    // 40% TreeSHAP, 30% LIME, 30% KernelSHAP: the overall p50 falls in
    // LIME's latency mode and the p90 in KernelSHAP's, not between modes.
    const double u = rng.Uniform();
    const int kind = u < 0.4 ? 0 : (u < 0.7 ? 2 : 1);
    ExplainRequest request;
    request.model = kModel;
    request.kind = kKinds[kind];
    request.fidelity = FidelityTier::kStandard;
    request.tenant = "tenant" + std::to_string(rng.UniformInt(tenants_));
    // A distinct seed per request keeps every cache key distinct even if
    // two generated instances coincide.
    request.seed = Mix(seed_ ^ 0x5eedull, static_cast<uint64_t>(i));
    request.trace.trace_id = static_cast<uint64_t>(i) + 1;
    request.instance = Instance(i);
    return {std::move(request), kind};
  }

 private:
  static constexpr int kChunk = 1024;

  Vector Instance(int64_t i) {
    const int64_t chunk = i / kChunk;
    if (chunk != chunk_index_) {
      chunk_ = xai::MakeLoans(
          kChunk, Mix(seed_, 0x1000000ull + static_cast<uint64_t>(chunk)));
      chunk_index_ = chunk;
    }
    return chunk_.Row(static_cast<int>(i % kChunk));
  }

  uint64_t seed_;
  int tenants_;
  int64_t chunk_index_ = -1;
  Dataset chunk_;
};

/// One op's input: the encoded frame plus what the checks need.
struct OpInput {
  std::string frame;
  int kind = 0;
  /// serve_hit: index into the working set (-1 for serve_miss).
  int working_index = -1;
  uint64_t trace_id = 0;
};

/// One submitted op. Times are steady_clock nanoseconds.
struct OpRecord {
  int input = 0;
  int64_t submit_ns = 0;
  int64_t submitted_ns = 0;  // SubmitWire returned to the client.
  int64_t done_ns = 0;       // Response frame delivered.
  std::string response;
};

struct Slice {
  int timed_ops = 0;
  double window_s = 0.0;
  double cpu_s = 0.0;
  std::vector<OpRecord> ops;
};

/// Closed-loop client: keeps `depth` requests in flight until `timed_ops`
/// responses arrived, then drains the rest.
class Client {
 public:
  explicit Client(AsyncFrontEnd* frontend) : frontend_(frontend) {}

  Slice Run(const std::vector<OpInput>& inputs, int timed_ops, int depth) {
    Slice slice;
    slice.timed_ops = timed_ops;
    slice.ops.reserve(inputs.size());
    std::vector<FrameFuture> futures;
    futures.reserve(inputs.size());
    size_t next = 0;
    int in_flight = 0;
    auto submit = [&] {
      OpRecord record;
      record.input = static_cast<int>(next);
      std::string frame = inputs[next++].frame;
      record.submit_ns = NowNs();
      FrameFuture future = frontend_->SubmitWire(std::move(frame));
      record.submitted_ns = NowNs();
      const size_t op = slice.ops.size();
      slice.ops.push_back(std::move(record));
      futures.push_back(future);
      ++in_flight;
      future.Then([this, op](const std::string&) {
        const int64_t now = NowNs();
        std::lock_guard<std::mutex> lock(mu_);
        done_.emplace_back(op, now);
        cv_.notify_one();
      });
    };

    const int64_t start_ns = NowNs();
    const double cpu_start = ProcessCpuSeconds();
    while (in_flight < depth && next < inputs.size()) submit();
    int completed = 0;
    std::vector<std::pair<size_t, int64_t>> batch;
    while (in_flight > 0) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !done_.empty(); });
        batch.swap(done_);
      }
      for (const auto& [op, done_ns] : batch) {
        slice.ops[op].done_ns = done_ns;
        --in_flight;
        if (++completed == timed_ops) {
          slice.window_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
          slice.cpu_s = ProcessCpuSeconds() - cpu_start;
        }
      }
      batch.clear();
      while (completed < timed_ops && in_flight < depth &&
             next < inputs.size())
        submit();
    }
    for (size_t i = 0; i < futures.size(); ++i)
      slice.ops[i].response = futures[i].Get();
    return slice;
  }

 private:
  AsyncFrontEnd* const frontend_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::pair<size_t, int64_t>> done_;
};

/// What the checks learned from one response frame.
struct Checked {
  bool ok = false;
  bool cache_hit = false;
  /// Server-side latency the response carries (enqueue to completion).
  double server_ms = 0.0;
  uint64_t payload_hash = 0;
};

/// Checks one response frame: a response (not an error or a shed), not
/// torn, and for serve_hit the payload recorded at set-up.
Checked Check(const std::string& frame, const std::vector<uint64_t>* expected,
              int working_index) {
  Checked out;
  auto type = xai::serve::async::PeekFrameType(frame);
  if (!type.ok() || type.ValueUnsafe() != FrameType::kResponse) return out;
  auto decoded = xai::serve::async::DecodeResponse(frame);
  if (!decoded.ok()) return out;
  auto& wire = decoded.ValueUnsafe();
  if (xai::serve::PayloadHash(wire.response) != wire.payload_hash) return out;
  if (expected != nullptr &&
      (working_index < 0 || (*expected)[working_index] != wire.payload_hash))
    return out;
  out.ok = true;
  out.cache_hit = wire.response.cache_hit;
  out.server_ms = wire.response.latency_ms;
  out.payload_hash = wire.payload_hash;
  return out;
}

/// A trained, registered model behind a running front end.
struct Stack {
  std::unique_ptr<ExplainServer> server;
  std::unique_ptr<AsyncFrontEnd> frontend;
  /// serve_hit: the payload hash set-up recorded for each working-set
  /// request.
  std::vector<uint64_t> expected;
};

ExplainServer::Config ServerConfig(uint64_t seed) {
  ExplainServer::Config config;
  config.trace_seed = seed;
  // A budget the miss stream fills within seconds, so the cache's memory
  // (and peak RSS) does not grow with how many requests a run managed.
  // serve_hit's working set takes about a quarter of it.
  config.cache.max_bytes = size_t{1} << 20;
  return config;
}

AsyncFrontEnd::Config FrontEndConfig() {
  AsyncFrontEnd::Config config;
  // Admission stays on, with limits far above the offered load: any shed
  // is a failure, not a workload property.
  config.admission.tokens_per_sec = 1e9;
  config.admission.burst = 1e9;
  config.admission.max_pending_per_tenant = 4096;
  return config;
}

/// Per-request timings the library's own trace events carry: queue wait
/// (request root span start to execution start) and execution time.
struct ServerTiming {
  int64_t request_start_ns = -1;
  int64_t execute_start_ns = -1;
  int64_t execute_ns = -1;
};

std::map<uint64_t, ServerTiming> CollectServerTimings() {
  std::map<uint64_t, ServerTiming> out;
  if (xai::telemetry::internal::GetTraceStats().buffered_events == 0)
    return out;
  std::vector<xai::telemetry::TraceEvent> events;
  xai::telemetry::internal::CollectTraceEvents(&events);
  xai::telemetry::internal::ClearTraceEvents();
  for (const auto& e : events) {
    if (e.trace_id == 0) continue;
    if (std::strcmp(e.name, "serve/request") == 0) {
      out[e.trace_id].request_start_ns = e.start_ns;
    } else if (std::strcmp(e.name, "serve/execute") == 0) {
      out[e.trace_id].execute_start_ns = e.start_ns;
      out[e.trace_id].execute_ns = e.duration_ns;
    }
  }
  return out;
}

/// Mean time per call of `fn` over `items`, microseconds; median of `reps`
/// passes, each recorded as one span named `name`.
template <typename T, typename Fn>
double MedianCallUs(const char* name, const std::vector<T>& items, int reps,
                    SpanLog* spans, Fn fn) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    for (const T& item : items) fn(item);
    const int64_t t1 = NowNs();
    spans->Record(name, t0, t1, 0, 0);
    per_call.push_back(static_cast<double>(t1 - t0) / 1e3 /
                       static_cast<double>(items.size()));
  }
  return Median(per_call);
}

}  // namespace

RunResult RunServe(const Options& options, bool hit_workload,
                   SpanLog* spans) {
  RunResult result;
  const Shape shape = ShapeFor(hit_workload, options.smoke);
  const int pool = std::max(1, options.nproc - 2);
  xai::SetNumThreads(pool);
  result.env["compute_pool"] = std::to_string(pool);
  result.env["client_threads"] = "1";
  result.env["in_flight"] = std::to_string(shape.in_flight);
  result.env["latency_in_flight"] = "1";

  // Inputs: generated before any timing. The library sees only these.
  const Dataset train = xai::MakeLoans(shape.train_rows, Mix(options.seed, 1));
  const Dataset background =
      xai::MakeLoans(shape.background_rows, Mix(options.seed, 2));
  RequestSource source(options.seed, shape.tenants);
  int64_t next_request = 0;
  auto make_inputs = [&](int n) {
    std::vector<OpInput> inputs;
    inputs.reserve(n);
    for (int i = 0; i < n; ++i) {
      auto [request, kind] = source.Make(next_request++);
      OpInput input;
      input.frame = xai::serve::async::EncodeRequest(request);
      input.kind = kind;
      input.trace_id = request.trace.trace_id;
      inputs.push_back(std::move(input));
    }
    return inputs;
  };
  std::vector<OpInput> working_inputs;
  if (hit_workload) {
    working_inputs = make_inputs(shape.working_set);
    for (int i = 0; i < shape.working_set; ++i)
      working_inputs[i].working_index = i;
  }

  // Set-up: train, register, start the front end and, for serve_hit,
  // compute the working set. setup_s is the median of several set-ups,
  // each scaled by HostScale: the first serves the run, the others are
  // spread over the timed phase (between slices, then discarded) so the
  // median samples the host the way the run's other figures do.
  SetTracing(false);
  xai::GbdtModel::Config gbdt;
  gbdt.n_trees = shape.trees;
  gbdt.max_depth = shape.depth;
  std::vector<double> setup_s, setup_raw_s;
  auto set_up = [&](Stack* stack) -> bool {
    const double scale = HostScale(options.nproc, &result.host_ref_us);
    const int64_t t0 = NowNs();
    auto model = xai::GbdtModel::Train(train, gbdt);
    if (!model.ok()) {
      result.Fail("training failed: " + model.status().ToString());
      return false;
    }
    stack->server = std::make_unique<ExplainServer>(ServerConfig(options.seed));
    auto registered = stack->server->registry().Register(
        kModel, xai::SerializeModel(model.ValueUnsafe()), background);
    if (!registered.ok()) {
      result.Fail("register failed: " + registered.status().ToString());
      return false;
    }
    stack->frontend =
        std::make_unique<AsyncFrontEnd>(stack->server.get(), FrontEndConfig());
    if (hit_workload) {
      Client client(stack->frontend.get());
      Slice computed = client.Run(working_inputs, shape.working_set, 32);
      for (const OpRecord& op : computed.ops) {
        Checked c = Check(op.response, nullptr, -1);
        if (!c.ok) {
          result.Fail("working-set request failed at set-up");
          return false;
        }
        stack->expected.push_back(c.payload_hash);
      }
    }
    setup_raw_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    setup_s.push_back(setup_raw_s.back() * scale);
    return true;
  };
  Stack stack;
  if (!set_up(&stack)) return result;
  Digest digest;
  for (uint64_t h : stack.expected) digest.Add(h);
  const int setup_reps = options.trace ? 1 : shape.setup_reps;
  // One more set-up, timed and thrown away; a working set that comes out
  // different from the first is a determinism failure.
  int setups = 1;
  auto extra_set_up = [&] {
    ++setups;
    Stack extra;
    if (set_up(&extra) && extra.expected != stack.expected)
      result.Fail("working set differs between set-ups");
  };

  auto entry = stack.server->registry().Find(kModel);
  Client client(stack.frontend.get());
  const std::vector<uint64_t>* expected =
      hit_workload ? &stack.expected : nullptr;
  xai::Rng draw(Mix(options.seed, 3));
  auto next_inputs = [&](int n) {
    if (!hit_workload) return make_inputs(n);
    std::vector<OpInput> inputs;
    inputs.reserve(n);
    for (int i = 0; i < n; ++i)
      inputs.push_back(working_inputs[draw.UniformInt(shape.working_set)]);
    return inputs;
  };

  // Checks every op of a slice into `checked`.
  std::vector<Checked> checked;
  auto check_slice = [&](const Slice& slice,
                         const std::vector<OpInput>& inputs) {
    checked.clear();
    for (const OpRecord& op : slice.ops) {
      const OpInput& input = inputs[op.input];
      checked.push_back(Check(op.response, expected, input.working_index));
      ++result.attempted;
      if (!checked.back().ok) ++result.failed;
    }
  };

  // Warm-up: one slice of each kind, checked, not timed.
  for (int depth : {1, shape.in_flight}) {
    const int n = depth == 1 ? shape.latency_slice : shape.throughput_slice;
    auto inputs = next_inputs(n + depth);
    Slice warm = client.Run(inputs, n, depth);
    check_slice(warm, inputs);
  }

  // Timed phase. Latency samples come from untraced latency slices.
  Reservoir latency_ms, kind_latency_ms[kNumKinds];
  // Indexed by [traced].
  std::vector<double> tp_rate[2], tp_cpu_ms[2], tp_cpu_raw_ms[2];
  int64_t cache_hits = 0, cache_lookups = 0;
  // Traced-run accumulators.
  std::vector<double> submit_us, hop_ms, hit_ms, queue_ms;
  std::vector<double> compute_ms[kNumKinds];
  double async_self_ms = 0, serve_self_ms = 0, explain_self_ms = 0,
         traced_latency_ms = 0;
  int64_t traced_latency_ops = 0, traced_ops = 0;
  int64_t model_evals = 0, regions = 0, queue_wait_ns = 0, batches = 0,
          batched = 0;
  std::vector<std::string> sample_responses;
  // Served misses the traced run re-runs on the explainers directly:
  // (request frame, response frame).
  std::vector<std::pair<std::string, std::string>> direct_candidates[kNumKinds];
  int digest_ops = 0;

  auto run_slice = [&](bool traced, bool latency) {
    const double scale = HostScale(options.nproc, &result.host_ref_us);
    SetTracing(traced);
    const int depth = latency ? 1 : shape.in_flight;
    const int n = latency ? shape.latency_slice : shape.throughput_slice;
    auto inputs = next_inputs(n + depth - 1);
    const auto cache_before = stack.server->cache().GetStats();
    const auto counters_before =
        xai::telemetry::Registry::Global().CounterSnapshot();
    Slice slice = client.Run(inputs, n, depth);
    const auto counters_after =
        xai::telemetry::Registry::Global().CounterSnapshot();
    const auto cache_after = stack.server->cache().GetStats();
    SetTracing(false);
    cache_hits += cache_after.hits - cache_before.hits;
    cache_lookups += (cache_after.hits - cache_before.hits) +
                     (cache_after.misses - cache_before.misses);
    std::map<uint64_t, ServerTiming> timings;
    if (traced) timings = CollectServerTimings();
    check_slice(slice, inputs);

    if (!latency) {
      tp_rate[traced].push_back(slice.timed_ops / slice.window_s);
      tp_cpu_raw_ms[traced].push_back(slice.cpu_s * 1e3 / slice.timed_ops);
      tp_cpu_ms[traced].push_back(tp_cpu_raw_ms[traced].back() * scale);
    }
    if (!traced) {
      for (size_t i = 0; i < slice.ops.size(); ++i) {
        const OpRecord& op = slice.ops[i];
        if (latency) {
          const double ms =
              static_cast<double>(op.done_ns - op.submit_ns) / 1e6;
          latency_ms.Add(ms);
          kind_latency_ms[inputs[op.input].kind].Add(ms);
        }
        // Latency slices submit exactly their inputs, so their first ops
        // are the same requests on every run of a seed.
        if (latency && digest_ops < 64 && checked[i].ok) {
          digest.Add(checked[i].payload_hash);
          ++digest_ops;
        }
      }
      return;
    }

    traced_ops += static_cast<int64_t>(slice.ops.size());
    model_evals += Counter(counters_after, "model/evals") -
                   Counter(counters_before, "model/evals");
    regions += Counter(counters_after, "parallel/regions") -
               Counter(counters_before, "parallel/regions");
    queue_wait_ns += Counter(counters_after, "parallel/queue_wait_ns") -
                     Counter(counters_before, "parallel/queue_wait_ns");
    if (!latency) {
      batches += Counter(counters_after, "serve/batches") -
                 Counter(counters_before, "serve/batches");
      batched += Counter(counters_after, "serve/batched_requests") -
                 Counter(counters_before, "serve/batched_requests");
    }
    for (size_t i = 0; i < slice.ops.size(); ++i) {
      const OpRecord& op = slice.ops[i];
      const OpInput& input = inputs[op.input];
      const uint64_t root = spans->Record("op", op.submit_ns, op.done_ns, 0,
                                          input.trace_id);
      spans->Record("frontend.submit", op.submit_ns, op.submitted_ns, root,
                    input.trace_id);
      submit_us.push_back(static_cast<double>(op.submitted_ns - op.submit_ns) /
                          1e3);
      if (sample_responses.size() < 256 && checked[i].ok)
        sample_responses.push_back(op.response);
      if (!latency || !checked[i].ok) continue;
      const Checked& c = checked[i];
      const double total = static_cast<double>(op.done_ns - op.submit_ns) / 1e6;
      double compute = 0.0;
      if (c.cache_hit) {
        hit_ms.push_back(c.server_ms);
      } else {
        auto it = timings.find(input.trace_id);
        if (it != timings.end() && it->second.execute_ns >= 0) {
          compute = static_cast<double>(it->second.execute_ns) / 1e6;
          compute_ms[input.kind].push_back(compute);
          const ServerTiming& t = it->second;
          if (t.request_start_ns >= 0)
            queue_ms.push_back(
                static_cast<double>(t.execute_start_ns - t.request_start_ns) /
                1e6);
        }
        if (static_cast<int>(direct_candidates[input.kind].size()) <
            shape.direct_per_kind)
          direct_candidates[input.kind].emplace_back(input.frame, op.response);
      }
      hop_ms.push_back(total - c.server_ms);
      async_self_ms += total - c.server_ms;
      serve_self_ms += c.server_ms - compute;
      explain_self_ms += compute;
      traced_latency_ms += total;
      ++traced_latency_ops;
    }
  };

  const int64_t phase_start = NowNs();
  auto elapsed_s = [&] {
    return static_cast<double>(NowNs() - phase_start) * 1e-9;
  };
  int pairs = 0;
  // Smoke mode runs a fixed two rounds; otherwise rounds continue until
  // the run's time is used (at least three, for the slice medians).
  const int min_pairs = options.smoke ? 2 : 3;
  const double setup_every_s = options.seconds / setup_reps;
  while (pairs < min_pairs ||
         (!options.smoke && elapsed_s() < options.seconds)) {
    if (setups < setup_reps &&
        (options.smoke || elapsed_s() >= setup_every_s * setups))
      extra_set_up();
    if (options.trace) {
      // Untraced and traced slices interleave so that trace.overhead_pct
      // compares like with like under the same host conditions.
      run_slice(false, true);
      run_slice(false, false);
      run_slice(true, true);
      run_slice(true, false);
    } else {
      run_slice(false, true);
      run_slice(false, false);
    }
    ++pairs;
  }
  while (setups < setup_reps) extra_set_up();
  result.digest = digest.value();
  result.metrics["setup_s"] = Median(setup_s);
  result.metrics["raw.setup_s"] = Median(setup_raw_s);
  result.samples["setup_s"] = static_cast<int64_t>(setup_s.size());

  const double hit_ratio =
      cache_lookups > 0 ? static_cast<double>(cache_hits) / cache_lookups : 0;
  const int64_t shed = stack.frontend->admission().TotalShed();
  if (hit_workload && hit_ratio < 0.99)
    result.Fail("serve_hit cache hit ratio " + std::to_string(hit_ratio) +
                " < 0.99");
  if (!hit_workload && cache_hits != 0)
    result.Fail("serve_miss had " + std::to_string(cache_hits) +
                " cache hits");
  if (shed != 0) result.Fail("admission shed " + std::to_string(shed));
  const auto cache = stack.server->cache().GetStats();
  result.env["cache_entries"] = std::to_string(cache.entries);
  result.env["cache_bytes"] = std::to_string(cache.bytes);
  result.env["cache_evictions"] = std::to_string(cache.evictions);

  // Whole-path figures, from the untraced slices of either kind of run.
  auto& m = result.metrics;
  m["ops_per_s"] = Median(tp_rate[0]);
  m["cpu_ms_per_op"] = Median(tp_cpu_ms[0]);
  m["raw.cpu_ms_per_op"] = Median(tp_cpu_raw_ms[0]);
  m["p50_ms"] = Quantile(latency_ms.values(), 0.5);
  m["p90_ms"] = Quantile(latency_ms.values(), 0.9);
  m["peak_rss_mb"] = PeakRssMb();
  result.samples["ops_per_s"] = static_cast<int64_t>(tp_rate[0].size());
  result.samples["cpu_ms_per_op"] = static_cast<int64_t>(tp_cpu_ms[0].size());
  result.samples["p50_ms"] = latency_ms.seen();
  result.samples["p90_ms"] = latency_ms.seen();
  for (int k = 0; k < kNumKinds; ++k) {
    m[std::string(kKindNames[k]) + "_p50_ms"] =
        Median(kind_latency_ms[k].values());
    result.samples[std::string(kKindNames[k]) + "_p50_ms"] =
        kind_latency_ms[k].seen();
  }
  if (!options.trace) return result;

  // ---- Traced run: per-layer metrics. ----
  const double untraced_rate = Median(tp_rate[0]);
  const double traced_rate = Median(tp_rate[1]);
  m["trace.overhead_pct"] =
      untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate * 100
                        : 0.0;
  m["frontend.submit_us"] = Median(submit_us);
  m["frontend.hop_ms"] = Median(hop_ms);
  m["admission.shed"] = static_cast<double>(shed);
  m["cache.hit_ratio"] = hit_ratio;
  m["cache.hit_ms"] = Median(hit_ms);
  m["batcher.queue_ms"] = Median(queue_ms);
  m["batcher.batch_size"] =
      batches > 0 ? static_cast<double>(batched) / batches : 0.0;
  for (int k = 0; k < kNumKinds; ++k)
    m[std::string("explain.compute_ms.") + kKindNames[k]] =
        Median(compute_ms[k]);
  const double ops = static_cast<double>(std::max<int64_t>(traced_ops, 1));
  m["model.evals_per_op"] = static_cast<double>(model_evals) / ops;
  m["parallel.regions_per_op"] = static_cast<double>(regions) / ops;
  m["parallel.queue_wait_us_per_op"] =
      static_cast<double>(queue_wait_ns) / 1e3 / ops;
  if (traced_latency_ops > 0) {
    const double n = static_cast<double>(traced_latency_ops);
    m["serve_async.self_ms"] = async_self_ms / n;
    m["serve.self_ms"] = serve_self_ms / n;
    m["explain.self_ms"] = explain_self_ms / n;
    m["serve_async.share"] = async_self_ms / traced_latency_ms;
    m["serve.share"] = serve_self_ms / traced_latency_ms;
    m["explain.share"] = explain_self_ms / traced_latency_ms;
  }
  result.samples["frontend.submit_us"] = static_cast<int64_t>(submit_us.size());
  result.samples["frontend.hop_ms"] = static_cast<int64_t>(hop_ms.size());
  result.samples["cache.hit_ms"] = static_cast<int64_t>(hit_ms.size());
  result.samples["batcher.queue_ms"] = static_cast<int64_t>(queue_ms.size());

  // Layer probes, telemetry still on: the wire codec on this workload's
  // frames, the model's batch inference, and the explainers called
  // directly on requests the server answered.
  SetTracing(true);
  std::vector<OpInput> probe_inputs = next_inputs(256);
  std::vector<std::string> request_frames;
  std::vector<std::pair<std::string, xai::serve::async::WireRequestHeader>>
      with_header;
  for (const OpInput& input : probe_inputs) {
    request_frames.push_back(input.frame);
    auto header = xai::serve::async::DecodeRequestHeader(input.frame);
    if (header.ok())
      with_header.emplace_back(input.frame, header.ValueUnsafe());
  }
  std::vector<xai::serve::ExplainResponse> responses;
  std::vector<double> response_bytes;
  for (const std::string& frame : sample_responses) {
    response_bytes.push_back(static_cast<double>(frame.size()));
    auto decoded = xai::serve::async::DecodeResponse(frame);
    if (decoded.ok()) responses.push_back(decoded.ValueUnsafe().response);
  }
  const int reps = options.smoke ? 3 : 25;
  size_t sink = 0;
  m["wire.decode_header_us"] = MedianCallUs(
      "wire.decode_header", request_frames, reps, spans,
      [&](const std::string& f) {
        sink += xai::serve::async::DecodeRequestHeader(f).ok();
      });
  m["wire.decode_body_us"] = MedianCallUs(
      "wire.decode_body", with_header, reps, spans, [&](const auto& p) {
        sink += xai::serve::async::DecodeRequestBody(p.first, p.second).ok();
      });
  if (!responses.empty())
    m["wire.encode_response_us"] = MedianCallUs(
        "wire.encode_response", responses, reps, spans, [&](const auto& r) {
          sink += xai::serve::async::EncodeResponse(r).size();
        });
  m["wire.response_bytes"] = Median(response_bytes);

  const xai::Matrix& bg = entry->background->x();
  std::vector<double> predict_ns;
  for (int r = 0; r < reps * 8; ++r) {
    const int64_t t0 = NowNs();
    sink += entry->model->PredictBatch(bg).size();
    const int64_t t1 = NowNs();
    spans->Record("model.predict_batch", t0, t1, 0, 0);
    predict_ns.push_back(static_cast<double>(t1 - t0) / bg.rows());
  }
  m["model.predict_ns_per_row"] = Median(predict_ns);

  // Direct explainer runs at the workload's pool size, on the tier plan
  // the server chose, compared bit for bit with what the server returned.
  const auto& policy = stack.server->policy();
  const int d = entry->num_features();
  const int bg_rows = static_cast<int>(entry->background->num_rows());
  const int64_t tree_nodes =
      entry->flat != nullptr ? entry->flat->num_nodes() : 0;
  std::vector<double> direct_ms[kNumKinds], evals[kNumKinds];
  int64_t direct_mismatch = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    for (const auto& [request_frame, response_frame] : direct_candidates[k]) {
      auto request = xai::serve::async::DecodeRequest(request_frame);
      auto served = xai::serve::async::DecodeResponse(response_frame);
      if (!request.ok() || !served.ok()) {
        ++direct_mismatch;
        continue;
      }
      const ExplainRequest& req = request.ValueUnsafe();
      const auto plan = policy.PlanForTier(req.kind, req.fidelity, d, bg_rows,
                                           tree_nodes);
      xai::AttributionExplanation attribution;
      int64_t used_evals = 0;
      const int64_t t0 = NowNs();
      if (req.kind == ExplainerKind::kTreeShap) {
        attribution = xai::TreeShap(*entry->tree_view, req.instance);
      } else if (req.kind == ExplainerKind::kKernelShap) {
        xai::MarginalFeatureGame game(*entry->model, req.instance, bg);
        xai::Rng rng(req.seed);
        auto out = xai::KernelShap(game, plan.kernel_config, &rng);
        if (out.ok()) attribution = std::move(out).ValueUnsafe();
        used_evals = game.num_evaluations() * bg_rows;
      } else {
        xai::LimeExplainer lime(*entry->background, plan.lime_config);
        auto out = lime.Explain(xai::AsPredictFn(*entry->model), req.instance,
                                req.seed);
        if (out.ok()) attribution = std::move(out).ValueUnsafe();
        used_evals = plan.planned_evals;
      }
      const int64_t t1 = NowNs();
      spans->Record("explain.direct", t0, t1, 0, req.trace.trace_id);
      direct_ms[k].push_back(static_cast<double>(t1 - t0) / 1e6);
      evals[k].push_back(static_cast<double>(used_evals));
      if (attribution.attributions !=
          served.ValueUnsafe().response.attribution.attributions)
        ++direct_mismatch;
    }
    m[std::string("explain.direct_ms.") + kKindNames[k]] = Median(direct_ms[k]);
    result.samples[std::string("explain.direct_ms.") + kKindNames[k]] =
        static_cast<int64_t>(direct_ms[k].size());
  }
  m["explain.evals.kernel_shap"] = Median(evals[1]);
  m["explain.evals.lime"] = Median(evals[2]);
  if (direct_mismatch != 0)
    result.Fail(std::to_string(direct_mismatch) +
                " served explanations differ from direct explainer runs");
  SetTracing(false);
  if (sink == 0) result.Fail("layer probes produced nothing");
  return result;
}

}  // namespace perfbench
