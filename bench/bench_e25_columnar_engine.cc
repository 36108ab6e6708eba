// E25 — Vectorized columnar relational engine: batch-of-1024 operators on
// SIMD kernels, shared-scan tuple-Shapley at relation scale.
//
// Systems claim (§3 of the paper: explanations in databases are *queries*
// and deserve query-engine treatment): the row-at-a-time interpreter —
// an Expr tree walk per tuple, group keys hashed as a string per cell,
// tuple-vector copies — is the relational analogue of the scalar
// inference loop E20 replaced.
// It survives as the test reference (tests/support/relational_reference),
// which this bench links for its row side.
// The columnar engine stores relations as typed columns with validity
// bytes and a provenance side array, compiles predicates once into a
// batch-of-1024 postorder program, parallelizes scans over row blocks
// under the bit-identity contract, and aggregates through the one
// canonical kernel set both engines share. On top of it, the dbx layer
// compiles boolean lineage to a branch-free AND/OR program — evaluated
// bit-parallel, 64 coalition masks per pass — and evaluates Shapley
// coalition games with one shared scan instead of rebuilding the query
// pipeline per coalition.
// Expected shape: columnar scan/filter/aggregate well past 3x over the
// row engine serially, join ahead on int64 key words, every operator
// output bit-identical to the row engine at 1/4/8 threads (values,
// types, AND provenance), and shared-scan Shapley several times faster
// than rebuild-per-coalition with bitwise-equal attributions.
//
// Emits BENCH_e25.json (+ Chrome trace) via bench::RunReport; `--smoke`
// shrinks the workload for CI.

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "support/relational_reference.h"
#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/core/timer.h"
#include "xai/dbx/shared_scan.h"
#include "xai/dbx/tuple_shapley.h"
#include "xai/relational/agg_kernels.h"
#include "xai/relational/columnar.h"
#include "xai/relational/columnar_ops.h"

namespace xai {
namespace {

using rel::AggFn;
using rel::ColumnarRelation;
using rel::Expr;
using rel::ExprPtr;
using rel::ProvExpr;
using rel::Relation;
using rel::Tuple;
using rel::Value;
namespace reference = rel::reference;

void Ck(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", status.ToString().c_str());
    std::abort();
  }
}

// Best-of-k wall time of `fn` (first call also serves as warm-up).
template <typename Fn>
double BestOf(int reps, const Fn& fn) {
  double best = 1e300;
  for (int i = 0; i <= reps; ++i) {
    WallTimer timer;
    fn();
    if (i > 0) best = std::min(best, timer.Seconds());
  }
  return best;
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Exact (bitwise for doubles) equality: types, bits, names, provenance.
bool SameRelation(const Relation& a, const Relation& b) {
  if (a.columns() != b.columns() || a.num_tuples() != b.num_tuples())
    return false;
  for (int i = 0; i < a.num_tuples(); ++i) {
    for (int c = 0; c < a.num_columns(); ++c) {
      const Value& va = a.tuple(i)[c];
      const Value& vb = b.tuple(i)[c];
      if (va.type() != vb.type()) return false;
      switch (va.type()) {
        case Value::Type::kNull:
          break;
        case Value::Type::kInt:
          if (va.AsInt() != vb.AsInt()) return false;
          break;
        case Value::Type::kDouble:
          if (Bits(va.AsDouble()) != Bits(vb.AsDouble())) return false;
          break;
        case Value::Type::kString:
          if (va.AsString() != vb.AsString()) return false;
          break;
      }
    }
    if (a.annotation(i)->ToString() != b.annotation(i)->ToString())
      return false;
  }
  return true;
}

// Star-schema-ish fact table: int64 key (~2% NULL), double measure
// (~2% NULL), dense double filter column.
Relation MakeFact(int n, int key_range, uint64_t seed) {
  Relation r("fact", {"k", "v", "d"});
  r.Reserve(n);
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    Tuple t;
    t.push_back(rng.Uniform() < 0.02
                    ? Value::Null()
                    : Value::Int(rng.UniformInt(key_range)));
    t.push_back(rng.Uniform() < 0.02 ? Value::Null()
                                     : Value::Double(rng.Uniform(-2.0, 2.0)));
    t.push_back(Value::Double(rng.Uniform(-1.0, 1.0)));
    Ck(r.AppendBase(std::move(t), i));
  }
  return r;
}

Relation MakeDim(int keys, uint64_t seed) {
  Relation r("dim", {"k", "p"});
  r.Reserve(keys);
  Rng rng(seed);
  for (int i = 0; i < keys; ++i) {
    Ck(r.AppendBase({Value::Int(i), Value::Double(rng.Uniform(0.0, 1.0))},
                    1'000'000 + i));
  }
  return r;
}

// A first read of every column and of the annotation block. The columnar
// operators defer gathers and products to the first read, so a micro that
// stopped at the operator call would count deferred work as speed against
// the eager row reference.
void ReadAll(const ColumnarRelation& r) {
  for (int c = 0; c < r.num_columns(); ++c) r.column(c);
  r.annotation_block();
}

// Operator microbenches: the same logical operator on the same data
// through both engines. The row engine is tuple-at-a-time and inherently
// serial; the columnar engine runs in its native mode — SIMD batches at
// the configured thread count, bit-identical to the serial row result
// (checked for exact equality once per operator before timing).
void RunOperatorMicro(int threads, bool smoke, bench::RunReport* report) {
  bench::Section("operator microbenches: row engine vs columnar engine");
  const int kRows = smoke ? 100'000 : 400'000;
  const int kKeys = 1024;
  const int kReps = smoke ? 2 : 3;
  Relation fact = MakeFact(kRows, kKeys, 7);
  Relation dim = MakeDim(kKeys, 9);

  SetNumThreads(threads);
  WallTimer convert_timer;
  ColumnarRelation cfact = ColumnarRelation::FromRows(fact).ValueOrDie();
  ColumnarRelation cdim = ColumnarRelation::FromRows(dim).ValueOrDie();
  const double convert_ms = convert_timer.Seconds() * 1e3;
  std::printf("FromRows (%d + %d rows): %.1f ms (amortized across ops)\n",
              kRows, kKeys, convert_ms);
  report->Metric("convert_ms", convert_ms);

  std::printf("%10s %14s %14s %10s\n", "operator", "row ms", "columnar ms",
              "speedup");
  auto record = [&](const char* op, double row_sec, double col_sec) {
    const double speedup = col_sec > 0 ? row_sec / col_sec : 0.0;
    std::printf("%10s %11.2f ms %11.2f ms %9.2fx\n", op, row_sec * 1e3,
                col_sec * 1e3, speedup);
    report->Metric(std::string(op) + "_speedup", speedup);
  };

  // scan: full-column SUM through the canonical kernel. The row engine
  // must first materialize tuple-at-a-time Value accesses into a dense
  // buffer (exactly what its GroupByAggregate does per group); the
  // columnar engine reduces the column payload in place.
  {
    double row_sink = 0.0, col_sink = 0.0;
    std::vector<double> buffer(fact.num_tuples());
    const double row_sec = BestOf(kReps, [&] {
      for (int i = 0; i < fact.num_tuples(); ++i)
        buffer[i] = fact.tuple(i)[1].AsDouble();
      row_sink = rel::CanonicalSum(buffer.data(),
                                   static_cast<int64_t>(buffer.size()));
    });
    const rel::Column& v = cfact.column(1);
    const double col_sec = BestOf(kReps, [&] {
      col_sink = rel::CanonicalSum(v.doubles().data(), v.size());
    });
    if (Bits(row_sink) != Bits(col_sink))
      std::printf("  scan MISMATCH: %a vs %a\n", row_sink, col_sink);
    record("scan", row_sec, col_sec);
  }

  // filter: compound predicate, ~50% selectivity.
  ExprPtr pred = Expr::And(
      Expr::Gt(Expr::Column(2), Expr::Const(Value::Double(0.0))),
      Expr::Not(Expr::Eq(Expr::Column(0), Expr::Const(Value::Int(3)))));
  {
    Relation row_out = reference::Select(fact, pred).ValueOrDie();
    ColumnarRelation col_out = Select(cfact, pred).ValueOrDie();
    if (!SameRelation(col_out.ToRows(), row_out))
      std::printf("  filter MISMATCH\n");
    const double row_sec =
        BestOf(kReps, [&] { reference::Select(fact, pred).ValueOrDie(); });
    const double col_sec =
        BestOf(kReps, [&] { ReadAll(Select(cfact, pred).ValueOrDie()); });
    record("filter", row_sec, col_sec);
  }

  // aggregate: SUM(v) grouped by the int64 key (1024 groups).
  {
    Relation row_out =
        reference::GroupByAggregate(fact, {0}, AggFn::kSum, 1, "s")
            .ValueOrDie();
    ColumnarRelation col_out =
        GroupByAggregate(cfact, {0}, AggFn::kSum, 1, "s").ValueOrDie();
    if (!SameRelation(col_out.ToRows(), row_out))
      std::printf("  aggregate MISMATCH\n");
    const double row_sec = BestOf(kReps, [&] {
      reference::GroupByAggregate(fact, {0}, AggFn::kSum, 1, "s")
          .ValueOrDie();
    });
    const double col_sec = BestOf(kReps, [&] {
      GroupByAggregate(cfact, {0}, AggFn::kSum, 1, "s").ValueOrDie();
    });
    record("aggregate", row_sec, col_sec);
  }

  // join: fact-to-dim equi-join on the int64 key (both sides kInt64, so
  // the columnar engine probes the integers themselves as key words).
  {
    Relation row_out = reference::EquiJoin(fact, dim, 0, 0).ValueOrDie();
    ColumnarRelation col_out = EquiJoin(cfact, cdim, 0, 0).ValueOrDie();
    if (!SameRelation(col_out.ToRows(), row_out))
      std::printf("  join MISMATCH\n");
    const double row_sec = BestOf(
        kReps, [&] { reference::EquiJoin(fact, dim, 0, 0).ValueOrDie(); });
    const double col_sec = BestOf(
        kReps, [&] { ReadAll(EquiJoin(cfact, cdim, 0, 0).ValueOrDie()); });
    record("join", row_sec, col_sec);
  }
  SetNumThreads(threads);
}

// Full pipeline (join -> filter -> group-by) through the columnar engine
// at 1/4/8 threads, each compared bit-for-bit — values, types, and
// provenance polynomials — against the serial row-engine reference.
void RunPipelineIdentity(int threads, bool smoke, bench::RunReport* report) {
  bench::Section("pipeline bit-identity: columnar at 1/4/8 threads vs row");
  const int kRows = smoke ? 30'000 : 120'000;
  Relation fact = MakeFact(kRows, 256, 11);
  Relation dim = MakeDim(256, 13);
  ExprPtr pred = Expr::Gt(Expr::Add(Expr::Column(2), Expr::Column(4)),
                          Expr::Const(Value::Double(0.4)));

  SetNumThreads(1);
  Relation row_result = [&] {
    Relation j = reference::EquiJoin(fact, dim, 0, 0).ValueOrDie();
    Relation s = reference::Select(j, pred).ValueOrDie();
    return reference::GroupByAggregate(s, {0}, AggFn::kSum, 1, "total")
        .ValueOrDie();
  }();
  const double row_sec = BestOf(smoke ? 1 : 2, [&] {
    Relation j = reference::EquiJoin(fact, dim, 0, 0).ValueOrDie();
    Relation s = reference::Select(j, pred).ValueOrDie();
    reference::GroupByAggregate(s, {0}, AggFn::kSum, 1, "total")
        .ValueOrDie();
  });

  ColumnarRelation cfact = ColumnarRelation::FromRows(fact).ValueOrDie();
  ColumnarRelation cdim = ColumnarRelation::FromRows(dim).ValueOrDie();
  for (int t : {1, 4, 8}) {
    SetNumThreads(t);
    ColumnarRelation out = [&] {
      ColumnarRelation j = EquiJoin(cfact, cdim, 0, 0).ValueOrDie();
      ColumnarRelation s = Select(j, pred).ValueOrDie();
      return GroupByAggregate(s, {0}, AggFn::kSum, 1, "total").ValueOrDie();
    }();
    const bool identical = SameRelation(out.ToRows(), row_result);
    const double col_sec = BestOf(smoke ? 1 : 2, [&] {
      ColumnarRelation j = EquiJoin(cfact, cdim, 0, 0).ValueOrDie();
      ColumnarRelation s = Select(j, pred).ValueOrDie();
      GroupByAggregate(s, {0}, AggFn::kSum, 1, "total").ValueOrDie();
    });
    const double speedup = col_sec > 0 ? row_sec / col_sec : 0.0;
    std::printf("columnar %d thread(s): %8.2f ms vs row %8.2f ms "
                "(%5.2fx), %s\n",
                t, col_sec * 1e3, row_sec * 1e3, speedup,
                identical ? "bit-identical" : "MISMATCH");
    report->Metric("pipeline_bit_identical_t" + std::to_string(t),
                   identical ? 1.0 : 0.0);
    report->Metric("pipeline_speedup_t" + std::to_string(t), speedup);
  }
  SetNumThreads(threads);
}

// Compiled-lineage microbench: one realistic join-style lineage (a sum of
// endo*exo monomials), every coalition of 16 endogenous tuples, the
// interpreted ProvExpr::EvalBool walk vs the compiled AND/OR program.
void RunLineageMicro(bool smoke, bench::RunReport* report) {
  bench::Section("boolean lineage: interpreted EvalBool vs compiled program");
  const int kEndo = 16;
  const int kMonomials = 256;
  std::vector<rel::ProvExprPtr> terms;
  Rng rng(17);
  for (int m = 0; m < kMonomials; ++m) {
    terms.push_back(ProvExpr::Times(ProvExpr::Base(rng.UniformInt(kEndo)),
                                    ProvExpr::Base(1000 + m)));
  }
  rel::ProvExprPtr lineage = ProvExpr::PlusAll(std::move(terms));
  std::vector<int> endo(kEndo);
  for (int i = 0; i < kEndo; ++i) endo[i] = i;
  std::set<int> endo_set(endo.begin(), endo.end());

  const CompiledLineage compiled = CompiledLineage::Compile(lineage, endo);
  CompiledLineage::Scratch scratch;
  const uint64_t kMasks = smoke ? 1u << 14 : 1u << 16;
  const int kReps = smoke ? 2 : 3;

  bool identical = true;
  uint64_t interp_pop = 0, compiled_pop = 0;
  const double interp_sec = BestOf(kReps, [&] {
    uint64_t pop = 0;
    for (uint64_t mask = 0; mask < kMasks; ++mask) {
      pop += lineage->EvalBool([&](int id) {
        if (!endo_set.count(id)) return true;
        return ((mask >> id) & 1) != 0;
      });
    }
    interp_pop = pop;
  });
  const double compiled_sec = BestOf(kReps, [&] {
    // Exhaustive enumeration is what the exact-Shapley path does; the
    // compiled program evaluates it bit-parallel, 64 coalitions per pass.
    uint64_t pop = 0;
    for (uint64_t base = 0; base < kMasks; base += 64)
      pop += static_cast<uint64_t>(
          std::popcount(compiled.Eval64(base, &scratch)));
    compiled_pop = pop;
  });
  identical = interp_pop == compiled_pop;
  const double speedup = compiled_sec > 0 ? interp_sec / compiled_sec : 0.0;
  std::printf("%llu masks x %d ops: interpreted %.2f ms, compiled "
              "bit-parallel %.2f ms (%5.2fx), %s\n",
              static_cast<unsigned long long>(kMasks), compiled.num_ops(),
              interp_sec * 1e3, compiled_sec * 1e3, speedup,
              identical ? "identical" : "MISMATCH");
  report->Metric("lineage_eval_speedup", speedup);
  report->Metric("lineage_identical", identical ? 1.0 : 0.0);
}

// Shared-scan tuple-Shapley end to end: SUM(salary) over qualifying rows,
// 12 endogenous tuples, Monte-Carlo permutations. The naive baseline
// rebuilds the sub-instance and re-runs the reference select+aggregate per
// coalition; the fast path runs what the query_shapley workload runs — the
// columnar Select, ToRows, then a shared scan that compiles each result
// row's lineage once and re-aggregates present rows per coalition. Values
// must agree bit for bit (identical coalition values feed the identical
// RNG stream).
//
// The pipeline section ends with SetNumThreads, which drops its 8-thread
// pool, so the first multi-chunk region after it starts the workers. That
// start is timed here, on its own line, so that each row below times only
// its own work.
void RunSharedScanShapley(bool smoke, bench::RunReport* report) {
  bench::Section("tuple-Shapley e2e: rebuild-per-coalition vs shared scan");
  WallTimer pool_timer;
  ParallelFor(2 * GetNumThreads(), 1, [](int64_t, int64_t, int64_t) {});
  const double pool_ms = pool_timer.Seconds() * 1e3;
  std::printf("pool start at %d thread(s): %.2f ms\n", GetNumThreads(),
              pool_ms);
  report->Metric("pool_start_ms", pool_ms);
  const int kEndo = 12;
  TupleShapleyConfig config;
  config.exact_limit = 0;  // Force the sampling estimator at every size.
  config.permutations = smoke ? 8 : 20;

  std::printf("%10s %14s %14s %10s %8s\n", "base rows", "rebuild ms",
              "shared ms", "speedup", "biteq");
  double max_speedup = 0.0;
  double all_identical = 1.0;
  for (int rows : smoke ? std::vector<int>{500, 2000, 8000}
                        : std::vector<int>{1000, 4000, 16000}) {
    Relation emp("emp", {"g", "salary"});
    emp.Reserve(rows);
    Rng rng(19);
    for (int i = 0; i < rows; ++i) {
      Ck(emp.AppendBase({Value::Int(i % 4),
                         Value::Double(rng.Uniform(50.0, 150.0))},
                        i));
    }
    ExprPtr pred =
        Expr::Gt(Expr::Column(1), Expr::Const(Value::Double(100.0)));
    std::vector<int> endo(kEndo);
    for (int i = 0; i < kEndo; ++i) endo[i] = i;

    auto naive_value = [&](const std::vector<int>& present) {
      std::set<int> p(present.begin(), present.end());
      Relation sub("emp", emp.columns());
      sub.Reserve(emp.num_tuples());
      for (int i = 0; i < emp.num_tuples(); ++i) {
        if (i >= kEndo || p.count(i))
          Ck(sub.Append(emp.tuple(i), emp.annotation(i)));
      }
      Relation selected = reference::Select(sub, pred).ValueOrDie();
      Relation agg =
          reference::GroupByAggregate(selected, {}, AggFn::kSum, 1, "s")
              .ValueOrDie();
      return agg.num_tuples() ? agg.tuple(0)[0].AsDouble() : 0.0;
    };

    WallTimer naive_timer;
    auto naive =
        NumericQueryTupleShapley(naive_value, endo, config).ValueOrDie();
    const double naive_sec = naive_timer.Seconds();

    const ColumnarRelation cemp = ColumnarRelation::FromRows(emp).ValueOrDie();
    WallTimer fast_timer;
    Relation result = Select(cemp, pred).ValueOrDie().ToRows();
    auto scan = SharedScanAggregate::Build(result, AggFn::kSum, 1, endo)
                    .ValueOrDie();
    auto fast = NumericQueryTupleShapley(scan.AsQueryValue(), endo, config)
                    .ValueOrDie();
    const double fast_sec = fast_timer.Seconds();

    bool identical = naive.game_evaluations == fast.game_evaluations &&
                     naive.values.size() == fast.values.size();
    for (const auto& [id, value] : naive.values) {
      identical = identical && fast.values.count(id) &&
                  Bits(value) == Bits(fast.values.at(id));
    }
    const double speedup = fast_sec > 0 ? naive_sec / fast_sec : 0.0;
    max_speedup = std::max(max_speedup, speedup);
    if (!identical) all_identical = 0.0;
    std::printf("%10d %11.1f ms %11.1f ms %9.2fx %8s\n", rows,
                naive_sec * 1e3, fast_sec * 1e3, speedup,
                identical ? "yes" : "NO");
    report->Metric("shapley_speedup_rows" + std::to_string(rows), speedup);
  }
  report->Metric("shapley_speedup_max", max_speedup);
  report->Metric("shapley_bit_identical", all_identical);
}

void Run(int threads, bool smoke) {
  const char* claim =
      "provenance-aware relational operators are batch kernels: a columnar "
      "engine with compiled predicates and shared canonical aggregation "
      "beats the row interpreter without changing one output bit, and "
      "shared-scan lineage evaluation makes tuple-Shapley a relation-scale "
      "operation (S3)";
  bench::Banner("E25: vectorized columnar relational engine", claim,
                "star-schema scan/filter/aggregate/join micro, pipeline "
                "bit-identity at 1/4/8 threads, compiled lineage, "
                "shared-scan tuple-Shapley e2e");
  bench::RunReport report("e25", claim);
  telemetry::Registry::Global().Reset();

  RunOperatorMicro(threads, smoke, &report);
  RunPipelineIdentity(threads, smoke, &report);
  RunLineageMicro(smoke, &report);
  RunSharedScanShapley(smoke, &report);

  std::printf("\nShape check: columnar scan/filter/aggregate >= 3x at the "
              "configured thread count, join ahead on int64 key words, "
              "pipeline bit-identical at 1/4/8 threads, shared-scan Shapley "
              "faster than rebuild with bitwise-equal values.\n");
  report.Note("smoke", smoke ? "true" : "false");
  report.Write();
  bench::Footer();
}

}  // namespace
}  // namespace xai

int main(int argc, char** argv) {
  int threads = xai::bench::ThreadsFlag(argc, argv);
  bool smoke = xai::bench::SmokeFlag(argc, argv);
  xai::SetNumThreads(threads);
  xai::Run(threads, smoke);
}
