#include "xai/dbx/tuple_shapley.h"

#include <algorithm>
#include <bit>
#include <span>

#include "xai/core/combinatorics.h"
#include "xai/core/telemetry.h"
#include "xai/dbx/mask_index.h"
#include "xai/dbx/shared_scan.h"

namespace xai {
namespace {

bool Exact(int n, const TupleShapleyConfig& config) {
  return n <= config.exact_limit && n <= 24;
}

Status CheckGame(int n, const TupleShapleyConfig& config) {
  if (n == 0) return Status::InvalidArgument("no endogenous tuples");
  if (n > 63) return Status::Unimplemented("more than 63 endogenous tuples");
  if (!Exact(n, config) && config.permutations <= 0)
    return Status::InvalidArgument(
        "permutation sampling needs permutations > 0");
  return Status::OK();
}

/// Exact Shapley values of a boolean game from its TruthTableWords table.
/// ShapleyOfSetFunction adds w[|S|] * (v(S + i) - v(S)) to phi[i] for
/// every S without i, in ascending order. On a 0/1 game the term is +w at
/// an up-swing, -w at a down-swing and +0.0 everywhere else, and adding
/// +0.0 changes only -0.0, which phi never is: it starts at +0.0, adds
/// nonzero terms, and an exact cancellation rounds to +0.0. Adding +/-w at
/// the swings alone, in ascending S, therefore performs that same chain
/// of roundings.
std::vector<double> BooleanShapley(const std::vector<uint64_t>& table,
                                   int n) {
  std::vector<double> w(n);
  for (int s = 0; s < n; ++s) w[s] = ShapleyWeight(n, s);
  std::vector<double> phi(n, 0.0);
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    ForEachSwingWord(table, i, [&](uint64_t base, uint64_t up,
                                   uint64_t down) {
      const int high = std::popcount(base);
      for (uint64_t lanes = up | down; lanes; lanes &= lanes - 1) {
        const int j = std::countr_zero(lanes);
        const double term = w[high + std::popcount(static_cast<unsigned>(j))];
        if ((up >> j) & 1) {
          acc += term;
        } else {
          acc -= term;
        }
      }
    });
    phi[i] = acc;
  }
  return phi;
}

/// A coalition game in block form: out[j] = v(masks[j]), with mask bit i
/// standing for endogenous[i]. The engine passes distinct masks only.
using BlockGame =
    std::function<void(std::span<const uint64_t>, std::span<double>)>;

/// Permutation visits per sampling chunk. Beyond the distinct coalitions
/// and their values, the sampler holds one chunk's permutations and visit
/// numbers.
constexpr int kChunkVisits = 1 << 15;

/// The sampler's coalition table and buffers. Each thread keeps one and
/// reuses it, so a stream of questions stops allocating here once it has
/// grown: on query_shapley, a table and buffers freshly allocated and
/// freed per question made glibc return the heap top to the system
/// between relation loads, and each load then faulted in 22 MB more. A
/// game that asks a question from inside its own evaluation gets a
/// scratch of its own.
struct SamplerScratch {
  MaskIndex index;
  std::vector<double> values;  // By coalition number.
  std::vector<int> perms;
  std::vector<uint32_t> visits;
  bool in_use = false;
};

/// Masks per block call while the exact path fills its table.
constexpr uint64_t kExactBlock = 1 << 12;

/// Exact Shapley values: the 2^n values in ascending blocks of masks, then
/// ShapleyOfValueTable.
TupleShapleyResult ExactValues(const BlockGame& game,
                               const std::vector<int>& endogenous) {
  const int n = static_cast<int>(endogenous.size());
  std::vector<double> table(uint64_t{1} << n);
  std::vector<uint64_t> masks;
  for (uint64_t base = 0; base < table.size(); base += kExactBlock) {
    masks.resize(std::min<uint64_t>(kExactBlock, table.size() - base));
    for (size_t j = 0; j < masks.size(); ++j) masks[j] = base + j;
    game(masks, std::span<double>(table).subspan(base, masks.size()));
  }
  const std::vector<double> phi = ShapleyOfValueTable(n, table);
  TupleShapleyResult result;
  result.exact = true;
  for (int i = 0; i < n; ++i) result.values[endogenous[i]] = phi[i];
  result.game_evaluations = 1 << n;
  return result;
}

/// Permutation-sampling Shapley values. Every permutation starts at the
/// empty coalition and ends at the grand one, and short prefixes recur, so
/// the sampler works a chunk of permutations at a time: it draws them,
/// numbers each visit's coalition in a MaskIndex, evaluates the chunk's
/// new coalitions in one block call (in first-visit order), and then
/// replays acc[i] += v(cur) - v(prev) in visit order. That is the chain of
/// adds that evaluating every visit performs, so the estimate is
/// bit-identical to it.
TupleShapleyResult SampledValues(const BlockGame& game,
                                 const std::vector<int>& endogenous,
                                 const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  const int chunk = std::max(1, kChunkVisits / (n + 1));
  Rng rng(config.seed);
  static thread_local SamplerScratch reused;
  SamplerScratch fresh;
  SamplerScratch& scratch = reused.in_use ? fresh : reused;
  scratch.in_use = true;
  MaskIndex& index = scratch.index;
  std::vector<double>& values = scratch.values;
  std::vector<int>& perms = scratch.perms;
  std::vector<uint32_t>& visits = scratch.visits;
  index.Clear();
  values.clear();
  std::vector<double> acc(n, 0.0);
  for (int first = 0; first < config.permutations; first += chunk) {
    const int count = std::min(chunk, config.permutations - first);
    perms.clear();
    visits.clear();
    for (int p = 0; p < count; ++p) {
      const std::vector<int> perm = rng.Permutation(n);
      perms.insert(perms.end(), perm.begin(), perm.end());
      uint64_t mask = 0;
      visits.push_back(index.Intern(mask));
      for (int i : perm) {
        mask |= uint64_t{1} << i;
        visits.push_back(index.Intern(mask));
      }
    }
    const size_t done = values.size();
    values.resize(index.size());
    game(std::span<const uint64_t>(index.masks()).subspan(done),
         std::span<double>(values).subspan(done));
    for (int p = 0; p < count; ++p) {
      const int* perm = perms.data() + static_cast<size_t>(p) * n;
      const uint32_t* visit = visits.data() + static_cast<size_t>(p) * (n + 1);
      double prev = values[visit[0]];
      for (int j = 0; j < n; ++j) {
        const double cur = values[visit[j + 1]];
        acc[perm[j]] += cur - prev;
        prev = cur;
      }
    }
  }
  scratch.in_use = false;
  TupleShapleyResult result;
  for (int i = 0; i < n; ++i)
    result.values[endogenous[i]] = acc[i] / config.permutations;
  result.game_evaluations = static_cast<int>(index.size());
  // Each permutation visits n + 1 coalitions; all but the first visits
  // of each are memo hits.
  XAI_COUNTER_ADD("dbx/coalition_memo_hits",
                  int64_t{config.permutations} * (n + 1) -
                      result.game_evaluations);
  return result;
}

TupleShapleyResult Shapley(const BlockGame& game,
                           const std::vector<int>& endogenous,
                           const TupleShapleyConfig& config) {
  return Exact(static_cast<int>(endogenous.size()), config)
             ? ExactValues(game, endogenous)
             : SampledValues(game, endogenous, config);
}

}  // namespace

Result<TupleShapleyResult> BooleanQueryTupleShapley(
    const rel::ProvExprPtr& lineage, const std::vector<int>& endogenous,
    const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  XAI_RETURN_NOT_OK(CheckGame(n, config));

  // One compilation replaces the per-evaluation tree walk (which paid a
  // set lookup plus a linear endogenous scan per lineage node); every
  // coalition evaluation is then a pass over the residual AND/OR program.
  const CompiledLineage compiled = CompiledLineage::Compile(lineage,
                                                            endogenous);
  if (Exact(n, config)) {
    // Every coalition is evaluated, 64 per program pass.
    const std::vector<double> phi =
        BooleanShapley(TruthTableWords(compiled, n), n);
    TupleShapleyResult result;
    result.exact = true;
    for (int i = 0; i < n; ++i) result.values[endogenous[i]] = phi[i];
    result.game_evaluations = 1 << n;
    return result;
  }
  CompiledLineage::Scratch scratch;
  return SampledValues(
      [&](std::span<const uint64_t> masks, std::span<double> out) {
        for (size_t j = 0; j < masks.size(); ++j)
          out[j] = compiled.Eval(masks[j], &scratch) ? 1.0 : 0.0;
      },
      endogenous, config);
}

Result<TupleShapleyResult> NumericQueryTupleShapley(
    const std::function<double(const std::vector<int>& present)>& query_value,
    const std::vector<int>& endogenous, const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  XAI_RETURN_NOT_OK(CheckGame(n, config));
  std::vector<int> present;
  present.reserve(n);
  return Shapley(
      [&](std::span<const uint64_t> masks, std::span<double> out) {
        for (size_t j = 0; j < masks.size(); ++j) {
          present.clear();
          for (int i = 0; i < n; ++i)
            if ((masks[j] >> i) & 1) present.push_back(endogenous[i]);
          out[j] = query_value(present);
        }
      },
      endogenous, config);
}

Result<TupleShapleyResult> NumericQueryTupleShapley(
    const SharedScanQuery& query, const std::vector<int>& endogenous,
    const TupleShapleyConfig& config) {
  const int n = static_cast<int>(endogenous.size());
  XAI_RETURN_NOT_OK(CheckGame(n, config));
  SharedScanAggregate& scan = query.scan();
  // Each player's scan bit, mapped once; a player the scan does not know
  // maps to no bit.
  std::vector<uint64_t> scan_bit(n);
  for (int i = 0; i < n; ++i) scan_bit[i] = scan.MaskOf({&endogenous[i], 1});
  std::vector<uint64_t> mapped;
  return Shapley(
      [&](std::span<const uint64_t> masks, std::span<double> out) {
        mapped.resize(masks.size());
        for (size_t j = 0; j < masks.size(); ++j) {
          uint64_t mask = 0;
          for (uint64_t bits = masks[j]; bits; bits &= bits - 1)
            mask |= scan_bit[std::countr_zero(bits)];
          mapped[j] = mask;
        }
        scan.Values(mapped, out);
      },
      endogenous, config);
}

}  // namespace xai
