// Explanations in databases (§3): provenance polynomials, Shapley values of
// tuples, and causal responsibility for a SQL query answer.
//
//   ./sql_explanations

#include <cstdio>
#include "xai/core/telemetry.h"

#include "xai/core/check.h"
#include "xai/dbx/repair_shapley.h"
#include "xai/dbx/responsibility.h"
#include "xai/dbx/tuple_shapley.h"
#include "xai/relational/columnar.h"
#include "xai/relational/columnar_ops.h"
#include "xai/relational/expression.h"
#include "xai/relational/relation.h"

int main(int argc, char** argv) {
  const bool show_telemetry = xai::telemetry::TelemetryFlag(argc, argv);

  using namespace xai;
  using namespace xai::rel;

  // A tiny order database. Order tuples are endogenous (the "facts" we may
  // question); the product catalog is exogenous (trusted).
  Relation orders("orders", {"customer", "product"});
  Relation products("products", {"product", "category"});
  TupleIdAllocator ids;

  struct OrderRow {
    const char* customer;
    int64_t product;
  };
  OrderRow rows[] = {{"ann", 0}, {"ann", 3}, {"bob", 1},
                     {"bob", 0},  {"cat", 4}, {"cat", 5}};
  std::vector<int> endogenous;
  for (const auto& r : rows) {
    int id = ids.Next();
    endogenous.push_back(id);
    XAI_CHECK(orders
                  .AppendBase({Value::Str(r.customer),
                               Value::Int(r.product)},
                              id)
                  .ok());
  }
  const char* categories[] = {"toys", "toys", "toys", "food", "food",
                              "food"};
  for (int p = 0; p < 6; ++p) {
    XAI_CHECK(products
                  .AppendBase({Value::Int(p), Value::Str(categories[p])},
                              ids.Next())
                  .ok());
  }
  std::printf("%s\n%s\n", orders.ToString(true).c_str(),
              products.ToString(true).c_str());

  // Query: which customers bought toys?
  //   SELECT DISTINCT customer FROM orders JOIN products USING(product)
  //   WHERE category = 'toys';
  // The columnar engine runs it; ToRows() brings the answer back as rows
  // for printing.
  auto joined = EquiJoin(ColumnarRelation::FromRows(orders).ValueOrDie(),
                         ColumnarRelation::FromRows(products).ValueOrDie(),
                         1, 0)
                    .ValueOrDie();
  auto toys = Select(joined, Expr::Eq(Expr::Column(3),
                                      Expr::Const(Value::Str("toys"))))
                  .ValueOrDie();
  const Relation answer =
      Project(toys, {0}, /*distinct=*/true).ValueOrDie().ToRows();
  std::printf("query answers with provenance polynomials:\n%s\n",
              answer.ToString(true).c_str());

  // Explain the answer "ann": which order tuples make it true, how much
  // does each contribute (Shapley), and what is each one's responsibility?
  for (int a = 0; a < answer.num_tuples(); ++a) {
    const auto& lineage = answer.annotation(a);
    std::printf("answer '%s':\n", answer.tuple(a)[0].AsString().c_str());
    std::printf("  lineage      : %s\n", lineage->ToString().c_str());
    std::printf("  why-provenance (minimal witnesses):");
    for (const auto& witness : lineage->WhyProvenance()) {
      std::printf(" {");
      bool first = true;
      for (int id : witness) {
        std::printf("%st%d", first ? "" : ",", id);
        first = false;
      }
      std::printf("}");
    }
    std::printf("\n");

    auto shapley =
        BooleanQueryTupleShapley(lineage, endogenous).ValueOrDie();
    auto responsibility =
        TupleResponsibility(lineage, endogenous).ValueOrDie();
    std::printf("  %8s %12s %16s\n", "tuple", "shapley", "responsibility");
    for (int id : endogenous) {
      if (shapley.values[id] == 0.0 &&
          responsibility.responsibility[id] == 0.0)
        continue;
      std::printf("  t%-7d %12.4f %16.4f\n", id, shapley.values[id],
                  responsibility.responsibility[id]);
    }
  }

  // --- Bonus: Shapley-guided repair of an inconsistent relation (§3 also
  // cites "Explanations for Data Repair Through Shapley Values").
  Relation addresses("addresses", {"zip", "city"});
  const char* cities[] = {"nyc", "nyc", "boston", "dc"};
  int64_t zips[] = {10001, 10001, 10001, 20002};
  for (int i = 0; i < 4; ++i)
    XAI_CHECK(addresses
                  .AppendBase({Value::Int(zips[i]), Value::Str(cities[i])},
                              i)
                  .ok());
  std::printf("\ninconsistent relation (FD zip -> city):\n%s",
              addresses.ToString().c_str());
  auto blame = RepairShapley(addresses, {0}, {1}).ValueOrDie();
  std::printf("inconsistency Shapley values:");
  for (const auto& [t, v] : blame) std::printf("  t%d=%.2f", t, v);
  auto repair = GreedyRepair(addresses, {0}, {1}).ValueOrDie();
  std::printf("\ngreedy repair deletes:");
  for (int t : repair) std::printf(" t%d", t);
  std::printf("\n");
  if (show_telemetry)
    std::printf("%s\n", xai::telemetry::SummaryLine().c_str());
  return 0;
}
