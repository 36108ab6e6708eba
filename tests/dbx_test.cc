#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <numeric>
#include <set>
#include <string>

#include "xai/core/check.h"
#include "xai/core/rng.h"
#include "xai/core/telemetry.h"
#include "xai/dbx/responsibility.h"
#include "xai/dbx/shared_scan.h"
#include "xai/dbx/tuple_shapley.h"
#include "xai/relational/provenance.h"
#include "xai/relational/relation.h"

namespace xai {
namespace {

using rel::ProvExpr;
using rel::ProvExprPtr;

// Lineage t1*t2 + t3: the textbook example with known Shapley values
// phi(t1) = phi(t2) = 1/6, phi(t3) = 2/3.
ProvExprPtr AndOrLineage() {
  return ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
}

TEST(TupleShapleyTest, KnownAndOrValues) {
  auto result =
      BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}).ValueOrDie();
  EXPECT_TRUE(result.exact);
  EXPECT_NEAR(result.values[1], 1.0 / 6, 1e-12);
  EXPECT_NEAR(result.values[2], 1.0 / 6, 1e-12);
  EXPECT_NEAR(result.values[3], 2.0 / 3, 1e-12);
}

TEST(TupleShapleyTest, EfficiencySumsToOneWhenAnswerHolds) {
  auto result =
      BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}).ValueOrDie();
  double sum = 0;
  for (const auto& [id, v] : result.values) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(TupleShapleyTest, ExogenousTuplesAlwaysPresent) {
  // Endogenous only t1; t2 exogenous: lineage t1*t2 behaves like t1.
  auto lineage = ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2));
  auto result = BooleanQueryTupleShapley(lineage, {1}).ValueOrDie();
  EXPECT_NEAR(result.values[1], 1.0, 1e-12);
}

TEST(TupleShapleyTest, IrrelevantTupleGetsZero) {
  auto lineage = ProvExpr::Base(1);
  auto result = BooleanQueryTupleShapley(lineage, {1, 2}).ValueOrDie();
  EXPECT_NEAR(result.values[1], 1.0, 1e-12);
  EXPECT_NEAR(result.values[2], 0.0, 1e-12);
}

TEST(TupleShapleyTest, SamplingMatchesExact) {
  // Force sampling with a low exact limit.
  TupleShapleyConfig config;
  config.exact_limit = 2;
  config.permutations = 20000;
  auto sampled =
      BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}, config)
          .ValueOrDie();
  EXPECT_FALSE(sampled.exact);
  EXPECT_NEAR(sampled.values[1], 1.0 / 6, 0.02);
  EXPECT_NEAR(sampled.values[3], 2.0 / 3, 0.02);
}

TEST(TupleShapleyTest, RejectsEmptyPlayers) {
  EXPECT_FALSE(BooleanQueryTupleShapley(AndOrLineage(), {}).ok());
}

// Sampling divides by the permutation count, so a non-positive count has
// no estimate to return; the exact path never reads it.
TEST(TupleShapleyTest, SamplingRejectsNonPositivePermutations) {
  auto count = [](const std::vector<int>& present) {
    return static_cast<double>(present.size());
  };
  for (int permutations : {0, -5}) {
    SCOPED_TRACE("permutations " + std::to_string(permutations));
    TupleShapleyConfig config;
    config.permutations = permutations;
    config.exact_limit = 0;
    const auto boolean =
        BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}, config);
    EXPECT_EQ(boolean.status().code(), StatusCode::kInvalidArgument);
    const auto numeric = NumericQueryTupleShapley(count, {1, 2, 3}, config);
    EXPECT_EQ(numeric.status().code(), StatusCode::kInvalidArgument);

    config.exact_limit = 20;
    const auto exact_boolean =
        BooleanQueryTupleShapley(AndOrLineage(), {1, 2, 3}, config);
    ASSERT_TRUE(exact_boolean.ok());
    EXPECT_TRUE(exact_boolean.ValueUnsafe().exact);
    EXPECT_NEAR(exact_boolean.ValueUnsafe().values.at(3), 2.0 / 3, 1e-12);
    const auto exact_numeric =
        NumericQueryTupleShapley(count, {1, 2, 3}, config);
    ASSERT_TRUE(exact_numeric.ok());
    EXPECT_NEAR(exact_numeric.ValueUnsafe().values.at(2), 1.0, 1e-12);
  }
}

TEST(TupleShapleyTest, CompileRefusesMoreThan64Players) {
  // Coalitions are 64-bit masks; a 65th player would have no bit.
  std::vector<int> endo(65);
  std::iota(endo.begin(), endo.end(), 0);
  EXPECT_DEATH(CompiledLineage::Compile(ProvExpr::Base(0), endo),
               "64 bits wide");
  endo.pop_back();
  EXPECT_EQ(CompiledLineage::Compile(ProvExpr::Base(63), endo).num_ops(), 1);
}

TEST(NumericTupleShapleyTest, CountQuery) {
  // Query = number of derivable answers among two answers with lineages
  // a1 = t1, a2 = t2*t3. phi(t1) = 1; phi(t2) = phi(t3) = 1/2.
  auto a1 = ProvExpr::Base(1);
  auto a2 = ProvExpr::Times(ProvExpr::Base(2), ProvExpr::Base(3));
  auto count_query = [&](const std::vector<int>& present) {
    auto has = [&](int id) {
      return std::find(present.begin(), present.end(), id) !=
             present.end();
    };
    double count = 0;
    if (a1->EvalBool(has)) count += 1;
    if (a2->EvalBool(has)) count += 1;
    return count;
  };
  auto result =
      NumericQueryTupleShapley(count_query, {1, 2, 3}).ValueOrDie();
  EXPECT_NEAR(result.values[1], 1.0, 1e-12);
  EXPECT_NEAR(result.values[2], 0.5, 1e-12);
  EXPECT_NEAR(result.values[3], 0.5, 1e-12);
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// Permutation sampling as it ran before coalition values were memoized:
// the same RNG stream and accumulation chain, every visit evaluated.
std::map<int, double> UnmemoizedSampling(
    const std::function<double(const std::vector<int>&)>& query_value,
    const std::vector<int>& endogenous, const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  auto value_of_mask = [&](uint64_t mask) {
    std::vector<int> present;
    for (int i = 0; i < n; ++i)
      if (mask & (1ULL << i)) present.push_back(endogenous[i]);
    return query_value(present);
  };
  Rng rng(config.seed);
  std::vector<double> acc(n, 0.0);
  for (int p = 0; p < config.permutations; ++p) {
    std::vector<int> perm = rng.Permutation(n);
    uint64_t mask = 0;
    double prev = value_of_mask(0);
    for (int i : perm) {
      mask |= 1ULL << i;
      double cur = value_of_mask(mask);
      acc[i] += cur - prev;
      prev = cur;
    }
  }
  std::map<int, double> values;
  for (int i = 0; i < n; ++i)
    values[endogenous[i]] = acc[i] / config.permutations;
  return values;
}

TEST(NumericTupleShapleyTest, SamplingEvaluatesEachCoalitionOnce) {
  // A non-additive game, so the accumulation order shows in the bits.
  auto game = [](const std::vector<int>& present) {
    double v = 0.0;
    for (int id : present) v += std::sqrt(static_cast<double>(id)) * 0.37;
    return v * v / (1.0 + static_cast<double>(present.size()));
  };
  std::map<std::vector<int>, int> calls;
  std::vector<std::vector<int>> call_order;
  auto counting_game = [&](const std::vector<int>& present) {
    ++calls[present];
    call_order.push_back(present);
    return game(present);
  };
  const std::vector<int> endo = {3, 8, 5, 21, 13, 2};
  TupleShapleyConfig config;
  config.exact_limit = 0;
  config.permutations = 300;
  config.seed = 77;
  auto result =
      NumericQueryTupleShapley(counting_game, endo, config).ValueOrDie();
  EXPECT_FALSE(result.exact);
  for (const auto& [present, count] : calls)
    EXPECT_EQ(count, 1) << "coalition of " << present.size() << " tuples";
  EXPECT_EQ(result.game_evaluations, static_cast<int>(calls.size()));
  EXPECT_LT(result.game_evaluations, 300 * 7);
  // The callback sees the coalitions in the order the permutations first
  // visit them.
  std::vector<std::vector<int>> first_visits;
  std::set<uint64_t> seen;
  Rng rng(config.seed);
  for (int p = 0; p < config.permutations; ++p) {
    uint64_t mask = 0;
    const std::vector<int> perm = rng.Permutation(6);
    for (size_t step = 0; step <= perm.size(); ++step) {
      if (step > 0) mask |= uint64_t{1} << perm[step - 1];
      if (!seen.insert(mask).second) continue;
      std::vector<int> present;
      for (int i = 0; i < 6; ++i)
        if ((mask >> i) & 1) present.push_back(endo[i]);
      first_visits.push_back(present);
    }
  }
  EXPECT_EQ(call_order, first_visits);

  const std::map<int, double> reference =
      UnmemoizedSampling(game, endo, config);
  ASSERT_EQ(result.values.size(), reference.size());
  for (const auto& [id, value] : reference)
    EXPECT_EQ(Bits(result.values.at(id)), Bits(value)) << "tuple " << id;
}

// ---- Golden sampled tuple-Shapley ----
//
// Each case pins, for a fixed seed, the bits of every sampled value (in
// tuple-id order), the number of distinct coalitions evaluated and the
// `dbx/coalition_memo_hits` delta. The bits were taken from the engine
// that evaluated one coalition per permutation step through an
// unordered_map memo; any rewrite of the sampler must reproduce them.

// kScanRemapped builds the scan over the players but asks the Shapley
// question over them in reverse order plus one id the scan does not know.
enum class GoldenGame { kCallback, kScan, kScanRemapped, kBoolean };

struct SampledGolden {
  const char* name;
  GoldenGame game;
  rel::AggFn fn;  // Scan games only, like `rows`.
  int rows;
  int players;
  int permutations;
  uint64_t seed;
  std::vector<uint64_t> value_bits;
  int game_evaluations;
  int64_t memo_hits;
};

// A non-additive game of the present ids, so the accumulation order
// shows in the bits.
double RootGame(const std::vector<int>& present) {
  double v = 0.0;
  for (int id : present) v += std::sqrt(static_cast<double>(id)) * 0.37;
  return v * v / (1.0 + static_cast<double>(present.size()));
}

std::vector<int> GoldenPlayers(int n) {
  std::vector<int> endo(n);
  for (int i = 0; i < n; ++i) endo[i] = 3 * i + 1;
  return endo;
}

// A seeded query result over `endo`: per row a value and a lineage that
// is a product of one or two players with an exogenous tuple, a product
// with Zero, an exogenous tuple alone, or a sum of two products (a row
// that keeps an OR program). Past 1 000 rows most rows need only an
// exogenous tuple, so coalitions keep more than 2 048 values.
rel::Relation GoldenRows(uint64_t seed, int num_rows,
                         const std::vector<int>& endo) {
  Rng rng(seed);
  rel::Relation rows("r", {"v"});
  const int n = static_cast<int>(endo.size());
  auto player = [&] { return ProvExpr::Base(endo[rng.UniformInt(n)]); };
  for (int r = 0; r < num_rows; ++r) {
    const double v = rng.Bernoulli(0.2) ? rng.UniformInt(4)
                                        : rng.Uniform(-50.0, 50.0);
    const double u = r >= 1000 ? 0.9 * rng.Uniform() : rng.Uniform();
    ProvExprPtr lineage;
    if (u < 0.35) {
      lineage = ProvExpr::Times(player(), ProvExpr::Base(500 + r % 7));
    } else if (u < 0.6) {
      lineage = ProvExpr::Times(player(), player());
    } else if (u < 0.65) {
      lineage = ProvExpr::Times(player(), ProvExpr::Zero());
    } else if (u < 0.9) {
      lineage = ProvExpr::Base(600 + r % 5);
    } else {
      lineage = ProvExpr::Plus(ProvExpr::Times(player(), player()),
                               player());
    }
    XAI_CHECK(rows.Append({rel::Value::Double(v)}, lineage).ok());
  }
  return rows;
}

// A seeded DNF over `endo`: a sum of products of one to three players.
ProvExprPtr GoldenLineage(uint64_t seed, const std::vector<int>& endo) {
  Rng rng(seed);
  const int n = static_cast<int>(endo.size());
  ProvExprPtr sum = ProvExpr::Zero();
  for (int t = 0; t < n; ++t) {
    ProvExprPtr product = ProvExpr::Base(endo[rng.UniformInt(n)]);
    for (int k = rng.UniformInt(3); k > 0; --k)
      product = ProvExpr::Times(product,
                                ProvExpr::Base(endo[rng.UniformInt(n)]));
    sum = ProvExpr::Plus(sum, product);
  }
  return sum;
}

std::string HexBits(const std::map<int, double>& values) {
  std::string out;
  char buf[32];
  for (const auto& [id, v] : values) {
    std::snprintf(buf, sizeof(buf), "0x%016llXULL, ",
                  static_cast<unsigned long long>(Bits(v)));
    out += buf;
  }
  return out;
}

TEST(GoldenSampledTupleShapleyTest, PinnedBitsEvaluationsAndMemoHits) {
  using rel::AggFn;
  const std::vector<SampledGolden> cases = {
      {"callback_6", GoldenGame::kCallback, AggFn::kSum, 0, 6, 300, 77,
       {0xBF91A7F0DA3747FAULL, 0x3FDF989B9252CB2CULL, 0x3FEA322B4F24D3F9ULL,
        0x3FF15B1EDA79DBE7ULL, 0x3FF56D1ACFFB3C04ULL, 0x3FF8CC2F1BA91C62ULL},
       64, 2036},
      {"callback_20", GoldenGame::kCallback, AggFn::kSum, 0, 20, 700, 4,
       {0xBFF6F3DE681A9FA3ULL, 0xBFD4188A54738F23ULL, 0x3FDCCF3BFC3B410CULL,
        0x3FF0D385D40F7114ULL, 0x3FF90EB87D45B906ULL, 0x40005BC59ED05D5DULL,
        0x4003BEA4B3F3F23DULL, 0x4006EA6524C5AD48ULL, 0x4009F1F729E2F6AAULL,
        0x400CD2BFCE729F8FULL, 0x400F82601516A946ULL, 0x40112163D3BEE017ULL,
        0x401279C04DAAA7D1ULL, 0x40134EE1F53C85C0ULL, 0x40148BA1B199710EULL,
        0x4015844A51ADA173ULL, 0x4016B9886E5812C3ULL, 0x4017D38D33222F5BULL,
        0x4018C5EDF4610A6FULL, 0x4019D5472B2DFF04ULL},
       10395, 4305},
      {"callback_40_41000_visits", GoldenGame::kCallback, AggFn::kSum, 0, 40,
       1000, 99,
       {0xC010D033127753D0ULL, 0xC0034BD04F5E0FD6ULL, 0xBFF4A2CF7C45C1E5ULL,
        0xBFD5F38645C9A21EULL, 0x3FDA8A1E5FA691DFULL, 0x3FF1FC0A17013964ULL,
        0x3FFC96E81F9043ABULL, 0x4002D8C22C9B0260ULL, 0x400748FF502ADF11ULL,
        0x400B587E446F9D69ULL, 0x400F6D8E8970B3B4ULL, 0x4011BE2D2DC6A273ULL,
        0x401381D47ECCE81BULL, 0x40153FF599187996ULL, 0x4016F4032305BBB7ULL,
        0x40187304D964E288ULL, 0x401A16A27F451FCEULL, 0x401BA5BE16A1DA36ULL,
        0x401D0C26235A371FULL, 0x401E94D722D86BBFULL, 0x40201A49292B751BULL,
        0x4020AA6C405A6425ULL, 0x40215C6C1E78DB63ULL, 0x402202D7D135D811ULL,
        0x4022C6E6375B947FULL, 0x40235B1423BB22AAULL, 0x4023C5EC1999C262ULL,
        0x40248B9D56D87602ULL, 0x40254AF116808750ULL, 0x4025C43F0737E31DULL,
        0x40265A5EDCE5918CULL, 0x4026CB1540AC99C6ULL, 0x4027824B7FAA65AEULL,
        0x4027FDFB28D86DF5ULL, 0x40289254024E1803ULL, 0x40294B6DAB38496AULL,
        0x4029DA9B73042FFBULL, 0x402A4C563A70BB0CULL, 0x402A9DE7705E9480ULL,
        0x402B6AB83644A14EULL},
       36099, 4901},
      {"scan_sum", GoldenGame::kScan, AggFn::kSum, 2500, 12, 60, 11,
       {0xC0682A22B027FAE0ULL, 0x40688D89A61593ACULL, 0x40624B07DBE144D2ULL,
        0x4057DE2D753B3386ULL, 0xC06C4B3E6F4C6BDBULL, 0x407D41F2AEB24297ULL,
        0xC06369A53ABF4B6EULL, 0x40667B5A510B13A0ULL, 0x4066411858E179AEULL,
        0x4056407BA6BD4FAEULL, 0xC04045A1CFAC228FULL, 0xC067190EFEB98AF7ULL},
       497, 283},
      {"scan_avg", GoldenGame::kScan, AggFn::kAvg, 2500, 9, 80, 12,
       {0x3FC0DC83B06636B2ULL, 0xBFACB66889D56180ULL, 0xBFC91D5C0B1E3933ULL,
        0xBFDACAB92B59A9A8ULL, 0xBFA46C353FC10BC0ULL, 0x3F8DAEE1EC2CCC45ULL,
        0xBFB568B4A1B5C4C6ULL, 0x3FA8C71ACFA3A1E0ULL, 0xBFC3C54A99E43967ULL},
       309, 491},
      {"scan_count", GoldenGame::kScan, AggFn::kCount, 2500, 9, 80, 13,
       {0x4066D20000000000ULL, 0x4068C26666666666ULL, 0x4067940000000000ULL,
        0x406858CCCCCCCCCDULL, 0x4068BC6666666666ULL, 0x40673ECCCCCCCCCDULL,
        0x406A4D999999999AULL, 0x4065BB999999999AULL, 0x406B1A6666666666ULL},
       323, 477},
      {"scan_min", GoldenGame::kScan, AggFn::kMin, 8, 9, 80, 14,
       {0xBFC4CCCCCCCCCCCDULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
        0x0000000000000000ULL, 0xBFC6666666666666ULL, 0x0000000000000000ULL,
        0xC015870387AEB194ULL, 0x0000000000000000ULL, 0x0000000000000000ULL},
       300, 500},
      {"scan_max", GoldenGame::kScan, AggFn::kMax, 10, 9, 80, 15,
       {0x3FF8AE60C2B91ED0ULL, 0x403004A9A7248463ULL, 0x400FF0B0529521E5ULL,
        0x0000000000000000ULL, 0x0000000000000000ULL, 0x3FF16DBB173514ECULL,
        0x402B15508471EA82ULL, 0x3FDABB3571297E20ULL, 0x3FEC18C23423E22DULL},
       301, 499},
      {"scan_sum_30", GoldenGame::kScan, AggFn::kSum, 2500, 30, 150, 16,
       {0x4051C0D9D5735C6DULL, 0xC04631EF3489A3A5ULL, 0x407949C9A45E0725ULL,
        0xC0313F511D6E4C24ULL, 0xC0523666812D6C23ULL, 0xC07306719DA2CF85ULL,
        0x404C775C12B2B8A9ULL, 0xC02720197D321B85ULL, 0xC035A9B2A82B41E5ULL,
        0x405713257BB27A81ULL, 0x407420AED9A9595AULL, 0x406925556E5BA9AEULL,
        0x4054FC3B10D87587ULL, 0xC065A4B5B42763FEULL, 0xC073ACE695DAF543ULL,
        0x405DD2760FEFBC05ULL, 0x404B7973911FC0AEULL, 0xC040AEC1C1E6E96AULL,
        0x405E7FADD047BC72ULL, 0x4057F169E226A8F5ULL, 0x406255E7C6917667ULL,
        0xC0452F9F025AC30EULL, 0x4070DC5D465E30F3ULL, 0x401105C95493E33AULL,
        0x4050FCBFBCA8E8E1ULL, 0xC04ACE0E34CCFC7BULL, 0x40478EC763F9DEF6ULL,
        0xC05B890C47B55FB3ULL, 0x40729B077DCD0567ULL, 0x403A9D8FD99E2632ULL},
       4055, 595},
      {"scan_remapped", GoldenGame::kScanRemapped, AggFn::kSum, 300, 10, 90, 17,
       {0x4034BC4BD4FFC5A6ULL, 0xC04C8B8FC0AF89FFULL, 0x40447D383AB899D2ULL,
        0xC0581D493A0E4F35ULL, 0x4065F87DC40144CBULL, 0x403B4342A2FF859FULL,
        0xC05828B04310055AULL, 0x402A640183BDAF97ULL, 0xC05DBC89533DFA0DULL,
        0xC03C33F1252D9AF0ULL, 0x0000000000000000ULL},
       582, 498},
      {"boolean_10", GoldenGame::kBoolean, AggFn::kSum, 0, 10, 200, 21,
       {0x3FD3851EB851EB85ULL, 0x3FA1EB851EB851ECULL, 0x0000000000000000ULL,
        0x3FA70A3D70A3D70AULL, 0x0000000000000000ULL, 0x3FD0000000000000ULL,
        0x3FD0F5C28F5C28F6ULL, 0x3FA1EB851EB851ECULL, 0x3FB0A3D70A3D70A4ULL,
        0x0000000000000000ULL},
       692, 1508},
      {"boolean_30", GoldenGame::kBoolean, AggFn::kSum, 0, 30, 400, 22,
       {0x0000000000000000ULL, 0x0000000000000000ULL, 0x0000000000000000ULL,
        0x3FB8F5C28F5C28F6ULL, 0x0000000000000000ULL, 0x3F647AE147AE147BULL,
        0x3F747AE147AE147BULL, 0x3F91EB851EB851ECULL, 0x3F847AE147AE147BULL,
        0x3FC0F5C28F5C28F6ULL, 0x3F8999999999999AULL, 0x0000000000000000ULL,
        0x3F7EB851EB851EB8ULL, 0x0000000000000000ULL, 0x3F747AE147AE147BULL,
        0x0000000000000000ULL, 0x3FA3333333333333ULL, 0x3FC3851EB851EB85ULL,
        0x3F7EB851EB851EB8ULL, 0x3F647AE147AE147BULL, 0x0000000000000000ULL,
        0x3FC147AE147AE148ULL, 0x3F8999999999999AULL, 0x0000000000000000ULL,
        0x3F847AE147AE147BULL, 0x3FC3D70A3D70A3D7ULL, 0x3F947AE147AE147BULL,
        0x3F747AE147AE147BULL, 0x3FC28F5C28F5C28FULL, 0x3F9C28F5C28F5C29ULL},
       10538, 1862},
  };
  constexpr bool kCompiled = XAI_TELEMETRY != 0;
  telemetry::Counter* memo_hits =
      telemetry::Registry::Global().GetCounter("dbx/coalition_memo_hits");
  for (const SampledGolden& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<int> endo = GoldenPlayers(c.players);
    TupleShapleyConfig config;
    config.exact_limit = 0;
    config.permutations = c.permutations;
    config.seed = c.seed;
    const int64_t hits_before = memo_hits->Get();
    Result<TupleShapleyResult> result = Status::Internal("unset");
    if (c.game == GoldenGame::kCallback) {
      result = NumericQueryTupleShapley(RootGame, endo, config);
    } else if (c.game != GoldenGame::kBoolean) {
      const rel::Relation rows = GoldenRows(c.seed, c.rows, endo);
      auto scan = SharedScanAggregate::Build(rows, c.fn, 0, endo);
      ASSERT_TRUE(scan.ok());
      std::vector<int> asked = endo;
      if (c.game == GoldenGame::kScanRemapped) {
        std::reverse(asked.begin(), asked.end());
        asked.push_back(999);
      }
      result = NumericQueryTupleShapley(scan.ValueUnsafe().AsQueryValue(),
                                        asked, config);
    } else {
      result = BooleanQueryTupleShapley(GoldenLineage(c.seed, endo), endo,
                                        config);
    }
    ASSERT_TRUE(result.ok());
    const TupleShapleyResult& r = result.ValueUnsafe();
    const int64_t hits = memo_hits->Get() - hits_before;
    EXPECT_FALSE(r.exact);
    std::vector<uint64_t> bits;
    for (const auto& [id, v] : r.values) bits.push_back(Bits(v));
    EXPECT_EQ(bits, c.value_bits)
        << "{" << HexBits(r.values) << "}, " << r.game_evaluations << ", "
        << hits;
    EXPECT_EQ(r.game_evaluations, c.game_evaluations);
    EXPECT_EQ(hits, kCompiled ? c.memo_hits : 0);
  }
}

// A game whose evaluation asks a sampled question of its own, on the same
// thread, gets the same answers as the two questions asked apart.
TEST(NumericTupleShapleyTest, GameMayAskAQuestionOfItsOwn) {
  TupleShapleyConfig config;
  config.exact_limit = 0;
  config.permutations = 50;
  config.seed = 3;
  const std::vector<int> outer_players = {2, 3, 5, 7, 11};
  const std::vector<int> inner_players = {13, 17, 19, 23};
  const auto outer_alone =
      NumericQueryTupleShapley(RootGame, outer_players, config).ValueOrDie();
  const auto inner_alone =
      NumericQueryTupleShapley(RootGame, inner_players, config).ValueOrDie();
  int nested = 0;
  auto nesting = [&](const std::vector<int>& present) {
    if (present.size() == 2) {
      const auto inner =
          NumericQueryTupleShapley(RootGame, inner_players, config)
              .ValueOrDie();
      EXPECT_EQ(HexBits(inner.values), HexBits(inner_alone.values));
      EXPECT_EQ(inner.game_evaluations, inner_alone.game_evaluations);
      ++nested;
    }
    return RootGame(present);
  };
  const auto outer =
      NumericQueryTupleShapley(nesting, outer_players, config).ValueOrDie();
  EXPECT_GT(nested, 0);
  EXPECT_EQ(HexBits(outer.values), HexBits(outer_alone.values));
  EXPECT_EQ(outer.game_evaluations, outer_alone.game_evaluations);
}

TEST(ResponsibilityTest, CounterfactualCauseHasFullResponsibility) {
  // Lineage t1 * t2: each tuple is a counterfactual cause.
  auto lineage = ProvExpr::Times(ProvExpr::Base(1), ProvExpr::Base(2));
  auto result = TupleResponsibility(lineage, {1, 2}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 1.0);
  EXPECT_DOUBLE_EQ(result.responsibility[2], 1.0);
  EXPECT_TRUE(result.contingency[1].empty());
}

TEST(ResponsibilityTest, DisjunctionNeedsContingency) {
  // Lineage t1 + t2: removing t1 alone keeps the answer (t2 covers it);
  // with contingency {t2}, removing t1 kills it: responsibility 1/2.
  auto lineage = ProvExpr::Plus(ProvExpr::Base(1), ProvExpr::Base(2));
  auto result = TupleResponsibility(lineage, {1, 2}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 0.5);
  EXPECT_DOUBLE_EQ(result.responsibility[2], 0.5);
  EXPECT_EQ(result.contingency[1], (std::vector<int>{2}));
}

TEST(ResponsibilityTest, AndOrMixedCase) {
  // t1*t2 + t3: t3 has responsibility 1/2 (contingency {t1} or {t2});
  // t1 needs contingency {t3}: responsibility 1/2... but removing t3 alone
  // doesn't kill the answer unless t1,t2 both present. Check consistency.
  auto result =
      TupleResponsibility(AndOrLineage(), {1, 2, 3}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[3], 0.5);
  EXPECT_DOUBLE_EQ(result.responsibility[1], 0.5);
  EXPECT_DOUBLE_EQ(result.responsibility[2], 0.5);
}

TEST(ResponsibilityTest, IrrelevantTupleNotACause) {
  auto lineage = ProvExpr::Base(1);
  auto result = TupleResponsibility(lineage, {1, 2}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 1.0);
  EXPECT_DOUBLE_EQ(result.responsibility[2], 0.0);
}

TEST(ResponsibilityTest, AnswerDoesNotHold) {
  // Lineage over an absent tuple id set: treat as answer not derivable
  // when all endogenous removed... here lineage = t9 & endo = {1}: t9 is
  // exogenous so the answer always holds and t1 is irrelevant.
  auto lineage = ProvExpr::Base(9);
  auto result = TupleResponsibility(lineage, {1}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 0.0);
}

TEST(ResponsibilityTest, ResponsibilityDecreasesWithRedundancy) {
  // t1 + t2 + t3 (three redundant derivations): responsibility 1/3 each.
  auto lineage = ProvExpr::Plus(
      ProvExpr::Plus(ProvExpr::Base(1), ProvExpr::Base(2)),
      ProvExpr::Base(3));
  auto result = TupleResponsibility(lineage, {1, 2, 3}).ValueOrDie();
  EXPECT_DOUBLE_EQ(result.responsibility[1], 1.0 / 3);
}

}  // namespace
}  // namespace xai
