// Query workload: query_shapley.
//
// Relational data in, tuple-Shapley vector out, through the columnar
// engine (relational) and the explanation layer (dbx). Base relations are
// a star schema: fact(id, k, amount, f) joined to dim(k, region, w). Each
// op is one answered question:
//   SELECT region, SUM(amount) FROM fact JOIN dim USING (k)
//   WHERE f > c GROUP BY region            -- c new per op
// followed by explaining one answer group g:
//   - numeric tuple-Shapley of SUM(amount) for g over 16 questioned
//     tuples (the 12 largest sales of g and the 4 stores most of them
//     came from), by shared-scan permutation sampling;
//   - exact boolean tuple-Shapley and causal responsibility for "does g
//     hold a sale at least as large as its 4th largest?", whose lineage
//     only the questioned tuples decide (every witness row has a
//     questioned fact tuple, so exogenous tuples alone cannot satisfy it).
// Ops run back to back from one caller with a pool of nproc threads.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/core/telemetry.h"
#include "xai/dbx/responsibility.h"
#include "xai/dbx/shared_scan.h"
#include "xai/dbx/tuple_shapley.h"
#include "xai/relational/columnar.h"
#include "xai/relational/columnar_ops.h"
#include "xai/relational/relation.h"

namespace perfbench {
namespace {

using xai::rel::AggFn;
using xai::rel::ColumnarRelation;
using xai::rel::Expr;
using xai::rel::Relation;
using xai::rel::Tuple;
using xai::rel::Value;

constexpr int kDimBase = 1 << 24;  // Base ids of dim tuples.
// Column indexes of the join output: fact(id, k, amount, f) ++ dim(k,
// region, w).
constexpr int kJoinId = 0, kJoinAmount = 2, kJoinF = 3, kJoinDimK = 4,
              kJoinRegion = 5;

struct Shape {
  int fact_rows;
  int dims;
  int groups;
  int questioned_facts;
  int questioned_dims;
  /// Witness rows of the boolean question (the group's top sales).
  int witnesses;
  int permutations;
  int setup_reps;
  /// Ops per timing block (ops/s is a median over blocks).
  int block;
};

Shape ShapeFor(bool smoke) {
  if (smoke) return Shape{6000, 64, 8, 12, 4, 4, 20, 2, 2};
  // 200k fact rows over 1024 stores in 64 regions; the filter keeps 45-55%
  // of the rows, so an answer group holds about 1 500. 500 permutations
  // put relational and dbx each near half of an op on a 4-core machine.
  // Set-up is about 30 ms, so 31 loads cost about 1 s of a run.
  return Shape{200000, 1024, 64, 12, 4, 4, 500, 31, 8};
}

struct Inputs {
  std::vector<Tuple> fact;
  std::vector<Tuple> dim;
};

Inputs MakeInputs(const Shape& shape, uint64_t seed) {
  Inputs in;
  xai::Rng rng(Mix(seed, 10));
  in.dim.reserve(shape.dims);
  for (int k = 0; k < shape.dims; ++k)
    in.dim.push_back({Value::Int(k), Value::Int(k % shape.groups),
                      Value::Double(rng.Uniform(0.5, 1.5))});
  in.fact.reserve(shape.fact_rows);
  for (int i = 0; i < shape.fact_rows; ++i)
    in.fact.push_back({Value::Int(i), Value::Int(rng.UniformInt(shape.dims)),
                       Value::Double(rng.Uniform(1.0, 100.0)),
                       Value::Double(rng.Uniform(-1.0, 1.0))});
  return in;
}

struct Loaded {
  ColumnarRelation fact;
  ColumnarRelation dim;
};

/// The load path: AppendBase per tuple, then FromRows. Consumes `in`.
xai::Result<Loaded> Load(Inputs in) {
  Relation fact("fact", {"id", "k", "amount", "f"});
  fact.Reserve(static_cast<int64_t>(in.fact.size()));
  for (size_t i = 0; i < in.fact.size(); ++i)
    XAI_RETURN_NOT_OK(
        fact.AppendBase(std::move(in.fact[i]), static_cast<int>(i)));
  Relation dim("dim", {"k", "region", "w"});
  dim.Reserve(static_cast<int64_t>(in.dim.size()));
  for (size_t k = 0; k < in.dim.size(); ++k)
    XAI_RETURN_NOT_OK(
        dim.AppendBase(std::move(in.dim[k]), kDimBase + static_cast<int>(k)));
  Loaded out;
  XAI_ASSIGN_OR_RETURN(out.fact, ColumnarRelation::FromRows(fact));
  XAI_ASSIGN_OR_RETURN(out.dim, ColumnarRelation::FromRows(dim));
  return out;
}

/// Span names; the prefix before '.' is the layer.
enum Stage {
  kJoin,
  kSelect,
  kGroupBy,
  kToRows,
  kRelease,
  kCompile,
  kBuild,
  kNumeric,
  kBoolean,
  kResponsibility,
  kNumStages
};
const char* const kStageSpan[kNumStages] = {
    "relational.join",     "relational.select",   "relational.groupby",
    "relational.to_rows",  "relational.release",  "dbx.compile",
    "dbx.build",           "dbx.numeric_shapley", "dbx.boolean_shapley",
    "dbx.responsibility"};
bool IsRelational(int stage) { return stage <= kRelease; }

/// Everything one op measured and produced.
struct Op {
  bool ok = false;
  std::string error;
  int64_t start_ns = 0, end_ns = 0;
  double cpu_ms = 0.0;
  double stage_ms[kNumStages] = {};
  int64_t join_rows = 0, select_rows = 0, groups = 0;
  int64_t game_evals = 0;
  int lineage_ops = 0;
  double answer = 0.0;
  std::map<int, double> numeric, boolean, responsibility;
};

class Query {
 public:
  Query(const Loaded& data, const Shape& shape, uint64_t seed, SpanLog* spans)
      : data_(data), shape_(shape), seed_(seed), spans_(spans) {}

  Op Run(int64_t index, bool traced) {
    Op op;
    traced_ = traced;
    op_ = &op;
    op_id_ = static_cast<uint64_t>(index) + 1;
    root_ = traced_ ? spans_->NewId() : 0;
    // Ops run one at a time and the pool sleeps between them, so the
    // process CPU time across the op is the op's own.
    const double cpu0 = ProcessCpuSeconds();
    op.start_ns = NowNs();
    op.error = Answer(index);
    op.end_ns = NowNs();
    op.cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
    op.ok = op.error.empty();
    if (traced_)
      spans_->Record("op", op.start_ns, op.end_ns, 0, op_id_, root_);
    return op;
  }

 private:
  /// Times `fn` as one call into a layer, adding to the op's stage time
  /// and, in the traced run, the span log.
  template <typename Fn>
  auto Timed(Stage stage, Fn fn) {
    const int64_t t0 = NowNs();
    auto out = fn();
    const int64_t t1 = NowNs();
    op_->stage_ms[stage] += static_cast<double>(t1 - t0) / 1e6;
    if (traced_) spans_->Record(kStageSpan[stage], t0, t1, root_, op_id_);
    return out;
  }

  /// Runs the op; returns an error description, empty on success.
  std::string Answer(int64_t index) {
    xai::Rng rng(Mix(seed_, 100 + static_cast<uint64_t>(index)));
    // A narrow range keeps the work per op, and so its timing, nearly the
    // same from op to op.
    const double c = rng.Uniform(-0.1, 0.1);
    const int g = rng.UniformInt(shape_.groups);

    auto joined = Timed(kJoin, [&] {
      return xai::rel::EquiJoin(data_.fact, data_.dim, 1, 0);
    });
    if (!joined.ok()) return "join: " + joined.status().ToString();
    auto selected = Timed(kSelect, [&] {
      return xai::rel::Select(
          joined.ValueUnsafe(),
          Expr::Gt(Expr::Column(kJoinF), Expr::Const(Value::Double(c))));
    });
    if (!selected.ok()) return "select: " + selected.status().ToString();
    auto grouped = Timed(kGroupBy, [&] {
      return xai::rel::GroupByAggregate(selected.ValueUnsafe(), {kJoinRegion},
                                        AggFn::kSum, kJoinAmount, "total");
    });
    if (!grouped.ok()) return "group by: " + grouped.status().ToString();
    op_->join_rows = joined.ValueUnsafe().num_rows();
    op_->select_rows = selected.ValueUnsafe().num_rows();
    op_->groups = grouped.ValueUnsafe().num_rows();

    Relation answers =
        Timed(kToRows, [&] { return grouped.ValueUnsafe().ToRows(); });
    bool found = false;
    for (const Tuple& t : answers.tuples()) {
      if (t[0].AsInt() == g) {
        op_->answer = t[1].AsDouble();
        found = true;
      }
    }
    if (!found) return "answer group missing";

    // The answer group's rows, with their lineage.
    auto members = Timed(kSelect, [&] {
      return xai::rel::Select(
          selected.ValueUnsafe(),
          Expr::Eq(Expr::Column(kJoinRegion), Expr::Const(Value::Int(g))));
    });
    if (!members.ok()) return "select group: " + members.status().ToString();
    Relation rows =
        Timed(kToRows, [&] { return members.ValueUnsafe().ToRows(); });

    // Questioned tuples: the group's largest sales and the stores most of
    // them came from (ties broken by id, so the choice is deterministic).
    std::vector<int> order(rows.num_tuples());
    for (int i = 0; i < rows.num_tuples(); ++i) order[i] = i;
    auto amount = [&](int i) { return rows.tuple(i)[kJoinAmount].AsDouble(); };
    auto id = [&](int i) { return rows.tuple(i)[kJoinId].AsInt(); };
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return amount(a) != amount(b) ? amount(a) > amount(b) : id(a) < id(b);
    });
    if (static_cast<int>(order.size()) < shape_.questioned_facts)
      return "answer group too small";
    std::vector<int> endogenous;
    std::map<int64_t, int> store_count;
    for (int i = 0; i < shape_.questioned_facts; ++i) {
      endogenous.push_back(static_cast<int>(id(order[i])));
      ++store_count[rows.tuple(order[i])[kJoinDimK].AsInt()];
    }
    std::vector<std::pair<int, int64_t>> stores;  // (-count, store)
    for (const auto& [store, n] : store_count) stores.emplace_back(-n, store);
    std::sort(stores.begin(), stores.end());
    for (int i = 0; i < shape_.questioned_dims &&
                    i < static_cast<int>(stores.size());
         ++i)
      endogenous.push_back(kDimBase + static_cast<int>(stores[i].second));
    const double threshold = amount(order[shape_.witnesses - 1]);

    // Lineage of the boolean question, computed by the engine.
    auto witnesses = Timed(kSelect, [&] {
      return xai::rel::Select(members.ValueUnsafe(),
                              Expr::Ge(Expr::Column(kJoinAmount),
                                       Expr::Const(Value::Double(threshold))));
    });
    if (!witnesses.ok())
      return "select witnesses: " + witnesses.status().ToString();
    auto exists = Timed(kGroupBy, [&] {
      return xai::rel::GroupByAggregate(witnesses.ValueUnsafe(), {},
                                        AggFn::kCount, kJoinAmount, "n");
    });
    if (!exists.ok()) return "count witnesses: " + exists.status().ToString();
    if (exists.ValueUnsafe().num_rows() != 1) return "no witness row";
    xai::rel::ProvExprPtr lineage = exists.ValueUnsafe().annotation(0);

    const auto compiled = Timed(kCompile, [&] {
      return xai::CompiledLineage::Compile(lineage, endogenous);
    });
    op_->lineage_ops = compiled.num_ops();
    auto scan = Timed(kBuild, [&] {
      return xai::SharedScanAggregate::Build(rows, AggFn::kSum, kJoinAmount,
                                             endogenous);
    });
    if (!scan.ok()) return "shared scan: " + scan.status().ToString();
    auto value = scan.ValueUnsafe().AsQueryValue();
    xai::TupleShapleyConfig numeric_config;
    numeric_config.exact_limit = 0;  // Permutation sampling.
    numeric_config.permutations = shape_.permutations;
    numeric_config.seed = Mix(seed_, 200 + static_cast<uint64_t>(index));
    auto numeric = Timed(kNumeric, [&] {
      return xai::NumericQueryTupleShapley(value, endogenous, numeric_config);
    });
    if (!numeric.ok()) return "numeric shapley: " + numeric.status().ToString();
    auto boolean = Timed(kBoolean, [&] {
      return xai::BooleanQueryTupleShapley(lineage, endogenous);
    });
    if (!boolean.ok()) return "boolean shapley: " + boolean.status().ToString();
    auto responsibility = Timed(kResponsibility, [&] {
      return xai::TupleResponsibility(lineage, endogenous);
    });
    if (!responsibility.ok())
      return "responsibility: " + responsibility.status().ToString();
    op_->game_evals = numeric.ValueUnsafe().game_evaluations +
                     boolean.ValueUnsafe().game_evaluations;
    op_->numeric = numeric.ValueUnsafe().values;
    op_->boolean = boolean.ValueUnsafe().values;
    op_->responsibility = responsibility.ValueUnsafe().responsibility;

    // Checks (inside the op's window; they cost two game evaluations).
    const double v_all = value(endogenous);
    const double v_none = value({});
    if (v_all != op_->answer)
      return "explained SUM differs from GroupByAggregate's";
    double sum = 0.0;
    for (const auto& [tuple, phi] : op_->numeric) sum += phi;
    if (!(std::fabs(sum - (v_all - v_none)) <=
          1e-9 * std::fabs(v_all - v_none)))
      return "numeric Shapley values do not sum to v(all) - v(none)";
    bool constant = false;
    xai::CompiledLineage::Scratch scratch;
    const uint64_t all = (1ull << endogenous.size()) - 1;
    if (compiled.IsConst(&constant) || compiled.Eval(0, &scratch) ||
        !compiled.Eval(all, &scratch))
      return "questioned tuples do not decide the boolean lineage";
    double bool_sum = 0.0;
    for (const auto& [tuple, phi] : op_->boolean) bool_sum += phi;
    if (!(std::fabs(bool_sum - 1.0) <= 1e-9))
      return "boolean Shapley values do not sum to 1";
    double max_resp = 0.0;
    for (const auto& [tuple, r] : op_->responsibility) {
      if (!(r >= 0.0 && r <= 1.0)) return "responsibility outside [0, 1]";
      max_resp = std::max(max_resp, r);
    }
    if (max_resp <= 0.0) return "no questioned tuple is a cause";

    // Freeing the operators' outputs (their provenance DAGs above all) is
    // the engine's work too; time it instead of leaving it to scope exit.
    Timed(kRelease, [&] {
      lineage.reset();
      for (auto* r : {&joined, &selected, &grouped, &members, &witnesses,
                      &exists})
        *r = ColumnarRelation();
      answers = Relation();
      rows = Relation();
      return 0;
    });
    return "";
  }

  const Loaded& data_;
  const Shape shape_;
  const uint64_t seed_;
  SpanLog* const spans_;
  bool traced_ = false;
  Op* op_ = nullptr;
  uint64_t op_id_ = 0;
  uint64_t root_ = 0;
};

}  // namespace

RunResult RunQuery(const Options& options, SpanLog* spans) {
  RunResult result;
  const Shape shape = ShapeFor(options.smoke);
  xai::SetNumThreads(options.nproc);
  result.env["compute_pool"] = std::to_string(options.nproc);
  result.env["client_threads"] = "1";
  result.env["in_flight"] = "1";
  SetTracing(false);

  // Set-up: load the base relations. setup_s is the median of several
  // loads, each scaled by HostScale: the first serves the run, the others
  // are spread over the timed phase (between blocks, then discarded) so the
  // median samples the host the way the run's other figures do.
  const Inputs inputs = MakeInputs(shape, options.seed);
  std::vector<double> setup_s, setup_raw_s;
  auto load = [&](Loaded* out) -> bool {
    Inputs copy = inputs;  // Input generation stays outside the timing.
    const double scale = HostScale(options.nproc, &result.host_ref_us);
    const int64_t t0 = NowNs();
    auto loaded = Load(std::move(copy));
    const int64_t t1 = NowNs();
    if (!loaded.ok()) {
      result.Fail("load failed: " + loaded.status().ToString());
      return false;
    }
    *out = std::move(loaded).ValueUnsafe();
    setup_raw_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_s.push_back(setup_raw_s.back() * scale);
    spans->Record("relational.load", t0, t1, 0, 0);
    return true;
  };
  Loaded data;
  if (!load(&data)) return result;
  const int setup_reps = options.trace ? 1 : shape.setup_reps;
  int setups = 1;
  auto extra_load = [&] {
    ++setups;
    Loaded extra;
    load(&extra);
  };

  Query query(data, shape, options.seed, spans);
  Digest digest;
  int64_t next = 0;
  auto run_op = [&](bool traced) {
    const int64_t index = next++;
    Op op = query.Run(index, traced);
    ++result.attempted;
    if (!op.ok) {
      ++result.failed;
      if (result.failed <= 3)
        std::fprintf(stderr, "query_shapley op %lld failed: %s\n",
                     static_cast<long long>(index), op.error.c_str());
    }
    if (index < 8) {
      digest.AddDouble(op.answer);
      for (const auto* values : {&op.numeric, &op.boolean, &op.responsibility})
        for (const auto& [tuple, v] : *values) {
          digest.Add(static_cast<uint64_t>(tuple));
          digest.AddDouble(v);
        }
    }
    return op;
  };

  // Warm-up op, not timed.
  run_op(false);

  // Timed loop, in blocks. The traced run alternates untraced and traced
  // blocks so trace.overhead_pct compares like with like.
  std::vector<double> latency_ms, cpu_ms, cpu_raw_ms, block_rate[2];
  std::vector<Op> traced_ops;
  int64_t regions = 0, queue_wait_ns = 0;
  const int block = options.trace ? std::max(1, shape.block / 2) : shape.block;
  const int64_t phase_start = NowNs();
  int blocks = 0;
  const int min_blocks = options.smoke ? 2 : 4;
  auto elapsed_s = [&] {
    return static_cast<double>(NowNs() - phase_start) * 1e-9;
  };
  const double setup_every_s = options.seconds / setup_reps;
  while (blocks < min_blocks ||
         (!options.smoke && elapsed_s() < options.seconds)) {
    if (setups < setup_reps &&
        (options.smoke || elapsed_s() >= setup_every_s * setups))
      extra_load();
    const double scale = HostScale(options.nproc, &result.host_ref_us);
    const bool traced = options.trace && blocks % 2 == 1;
    SetTracing(traced);
    const auto counters_before =
        xai::telemetry::Registry::Global().CounterSnapshot();
    const int64_t t0 = NowNs();
    for (int i = 0; i < block; ++i) {
      Op op = run_op(traced);
      if (traced) {
        traced_ops.push_back(std::move(op));
      } else {
        latency_ms.push_back(static_cast<double>(op.end_ns - op.start_ns) /
                             1e6);
        cpu_raw_ms.push_back(op.cpu_ms);
        cpu_ms.push_back(op.cpu_ms * scale);
      }
    }
    const double window_s = static_cast<double>(NowNs() - t0) * 1e-9;
    const auto counters_after =
        xai::telemetry::Registry::Global().CounterSnapshot();
    SetTracing(false);
    block_rate[traced].push_back(block / window_s);
    if (traced) {
      regions += Counter(counters_after, "parallel/regions") -
                 Counter(counters_before, "parallel/regions");
      queue_wait_ns += Counter(counters_after, "parallel/queue_wait_ns") -
                       Counter(counters_before, "parallel/queue_wait_ns");
    }
    ++blocks;
  }
  while (setups < setup_reps) extra_load();
  result.digest = digest.value();
  result.metrics["setup_s"] = Median(setup_s);
  result.metrics["raw.setup_s"] = Median(setup_raw_s);
  result.samples["setup_s"] = static_cast<int64_t>(setup_s.size());

  // Whole-path figures, from the untraced blocks of either kind of run.
  auto& m = result.metrics;
  m["ops_per_s"] = Median(block_rate[0]);
  m["cpu_ms_per_op"] = Median(cpu_ms);
  m["raw.cpu_ms_per_op"] = Median(cpu_raw_ms);
  m["p50_ms"] = Quantile(latency_ms, 0.5);
  m["p90_ms"] = Quantile(latency_ms, 0.9);
  m["peak_rss_mb"] = PeakRssMb();
  result.samples["ops_per_s"] = static_cast<int64_t>(block_rate[0].size());
  result.samples["cpu_ms_per_op"] = static_cast<int64_t>(cpu_ms.size());
  result.samples["p50_ms"] = static_cast<int64_t>(latency_ms.size());
  result.samples["p90_ms"] = static_cast<int64_t>(latency_ms.size());
  if (!options.trace) return result;

  // ---- Traced run: per-layer metrics. ----
  m["relational.load_ms"] = setup_raw_s.front() * 1e3;
  const double untraced_rate = Median(block_rate[0]);
  const double traced_rate = Median(block_rate[1]);
  m["trace.overhead_pct"] =
      untraced_rate > 0 ? (untraced_rate - traced_rate) / untraced_rate * 100
                        : 0.0;
  std::vector<double> stage[kNumStages], join_rows, select_rows, groups,
      game_evals, lineage_ops;
  double relational_ms = 0, dbx_ms = 0, op_ms = 0;
  for (const Op& op : traced_ops) {
    for (int s = 0; s < kNumStages; ++s) {
      stage[s].push_back(op.stage_ms[s]);
      (IsRelational(s) ? relational_ms : dbx_ms) += op.stage_ms[s];
    }
    op_ms += static_cast<double>(op.end_ns - op.start_ns) / 1e6;
    join_rows.push_back(static_cast<double>(op.join_rows));
    select_rows.push_back(static_cast<double>(op.select_rows));
    groups.push_back(static_cast<double>(op.groups));
    game_evals.push_back(static_cast<double>(op.game_evals));
    lineage_ops.push_back(op.lineage_ops);
  }
  m["relational.join_ms"] = Median(stage[kJoin]);
  m["relational.select_ms"] = Median(stage[kSelect]);
  m["relational.groupby_ms"] = Median(stage[kGroupBy]);
  m["relational.to_rows_ms"] = Median(stage[kToRows]);
  m["relational.release_ms"] = Median(stage[kRelease]);
  m["relational.rows_out.join"] = Median(join_rows);
  m["relational.rows_out.select"] = Median(select_rows);
  m["relational.rows_out.groupby"] = Median(groups);
  m["dbx.build_ms"] = Median(stage[kBuild]);
  m["dbx.numeric_shapley_ms"] = Median(stage[kNumeric]);
  m["dbx.boolean_shapley_ms"] = Median(stage[kBoolean]);
  m["dbx.responsibility_ms"] = Median(stage[kResponsibility]);
  m["dbx.game_evals"] = Median(game_evals);
  m["dbx.lineage_ops"] = Median(lineage_ops);
  const double n = static_cast<double>(std::max<size_t>(traced_ops.size(), 1));
  m["relational.self_ms"] = relational_ms / n;
  m["dbx.self_ms"] = dbx_ms / n;
  m["relational.share"] = op_ms > 0 ? relational_ms / op_ms : 0.0;
  m["dbx.share"] = op_ms > 0 ? dbx_ms / op_ms : 0.0;
  m["parallel.regions_per_op"] = static_cast<double>(regions) / n;
  m["parallel.queue_wait_us_per_op"] =
      static_cast<double>(queue_wait_ns) / 1e3 / n;
  result.samples["relational.join_ms"] =
      static_cast<int64_t>(traced_ops.size());
  return result;
}

}  // namespace perfbench
