// E12 — Shapley values of tuples in query answering (§3).
//
// Paper claim: "recent developments in XAI have inspired novel
// explainability approaches such as Shapley value-based methods to generate
// explanations for SQL query answers" (Livshits/Bertossi/Kimelfeld/Sebag).
// The problem is #P-hard in general: exact subset enumeration explodes with
// the number of endogenous tuples while permutation sampling scales.
// Expected shape: exact runtime doubles per endogenous tuple; sampling
// error ~ 1/sqrt(permutations); responsibility gives coarser (1/(1+k))
// scores consistent with the Shapley ranking.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "xai/core/check.h"
#include "xai/core/rng.h"
#include "xai/core/timer.h"
#include "xai/dbx/responsibility.h"
#include "xai/dbx/tuple_shapley.h"
#include "xai/relational/columnar.h"
#include "xai/relational/columnar_ops.h"
#include "xai/relational/expression.h"
#include "xai/relational/relation.h"

namespace xai {
namespace {

using rel::AggFn;
using rel::ColumnarRelation;
using rel::Expr;
using rel::ProvExpr;
using rel::ProvExprPtr;
using rel::Relation;
using rel::Value;

// Builds Orders(customer, product) JOIN Products(product, category),
// selects category = 'toys', projects the customer — the boolean answer
// "some customer bought a toy" has a DNF lineage over order tuples.
// Orders are endogenous; product tuples exogenous.
struct QueryCase {
  ProvExprPtr lineage;
  std::vector<int> endogenous;
};

// `n_toys` controls how many orders hit a toy product (>= 1 so the answer
// holds); -1 draws products uniformly (expected 1/3 toys).
QueryCase BuildCase(int n_orders, uint64_t seed, int n_toys = -1) {
  Rng rng(seed);
  Relation orders("orders", {"customer", "product"});
  Relation products("products", {"product", "category"});
  int next_id = 0;
  std::vector<int> endogenous;
  for (int i = 0; i < n_orders; ++i) {
    int id = next_id++;
    endogenous.push_back(id);
    int product;
    if (n_toys < 0) {
      product = i < 2 ? i : rng.UniformInt(6);  // Answer always holds.
    } else {
      product = i < n_toys ? rng.UniformInt(2) : 2 + rng.UniformInt(4);
    }
    XAI_CHECK(orders
                  .AppendBase({Value::Str("c" + std::to_string(
                                              rng.UniformInt(4))),
                               Value::Int(product)},
                              id)
                  .ok());
  }
  for (int p = 0; p < 6; ++p) {
    XAI_CHECK(products
                  .AppendBase({Value::Int(p),
                               Value::Str(p < 2 ? "toys" : "food")},
                              next_id++)
                  .ok());
  }
  auto joined =
      rel::EquiJoin(ColumnarRelation::FromRows(orders).ValueOrDie(),
                    ColumnarRelation::FromRows(products).ValueOrDie(), 1, 0)
          .ValueOrDie();
  auto toys = rel::Select(joined, Expr::Eq(Expr::Column(3),
                                           Expr::Const(Value::Str("toys"))))
                  .ValueOrDie();
  auto answer = rel::GroupByAggregate(toys, {}, AggFn::kCount, -1, "cnt")
                    .ValueOrDie();
  QueryCase result;
  result.lineage = answer.num_rows() > 0 ? answer.annotation(0)
                                         : ProvExpr::Zero();
  result.endogenous = endogenous;
  return result;
}

void Run() {
  bench::Banner(
      "E12: Shapley values of tuples in query answering",
      "\"Shapley value-based methods to generate explanations for SQL "
      "query answers\" (S3)",
      "boolean query: EXISTS(orders JOIN products WHERE category='toys'); "
      "orders endogenous, products exogenous");

  bench::Section("exact enumeration cost vs #endogenous tuples");
  std::printf("%8s %14s %16s\n", "tuples", "evaluations", "time_ms");
  for (int n : {8, 12, 16, 20}) {
    QueryCase qc = BuildCase(n, 100 + n);
    WallTimer timer;
    auto result =
        BooleanQueryTupleShapley(qc.lineage, qc.endogenous).ValueOrDie();
    std::printf("%8d %14d %16.2f\n", n, result.game_evaluations,
                timer.Millis());
  }

  bench::Section("sampling vs exact at 16 endogenous tuples");
  QueryCase qc = BuildCase(16, 7);
  auto exact =
      BooleanQueryTupleShapley(qc.lineage, qc.endogenous).ValueOrDie();
  std::printf("%14s %14s %12s\n", "permutations", "max_error", "time_ms");
  for (int permutations : {100, 1000, 10000}) {
    TupleShapleyConfig config;
    config.exact_limit = 0;  // Force sampling.
    config.permutations = permutations;
    WallTimer timer;
    auto sampled =
        BooleanQueryTupleShapley(qc.lineage, qc.endogenous, config)
            .ValueOrDie();
    double err = 0;
    for (const auto& [id, v] : exact.values)
      err = std::max(err, std::fabs(v - sampled.values[id]));
    std::printf("%14d %14.5f %12.2f\n", permutations, err, timer.Millis());
  }

  bench::Section(
      "Shapley vs causal responsibility (12 tuples, 3 toy orders)");
  QueryCase small = BuildCase(12, 9, /*n_toys=*/3);
  auto shapley =
      BooleanQueryTupleShapley(small.lineage, small.endogenous)
          .ValueOrDie();
  auto responsibility =
      TupleResponsibility(small.lineage, small.endogenous).ValueOrDie();
  std::printf("%8s %14s %18s\n", "tuple", "shapley", "responsibility");
  for (int id : small.endogenous)
    std::printf("t%-7d %14.4f %18.4f\n", id, shapley.values[id],
                responsibility.responsibility[id]);
  std::printf(
      "\nShape check: exact evaluations = 2^n; sampling error falls with "
      "permutations; responsibility coarsens but preserves the zero/non-"
      "zero structure of the Shapley ranking.\n");
  bench::Footer();
}

}  // namespace
}  // namespace xai

int main() { xai::Run(); }
