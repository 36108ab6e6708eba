#include "xai/dbx/shared_scan.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <utility>

#include "xai/core/check.h"
#include "xai/core/simd.h"
#include "xai/core/telemetry.h"
#include "xai/relational/agg_kernels.h"
#include "xai/relational/columnar.h"

namespace xai {
namespace {

using rel::ProvExpr;
using rel::ProvExprPtr;

/// Partial-evaluation result for one DAG node: either a compile-time
/// constant (exogenous-only subtrees fold to true; Zero folds to false)
/// or a program slot.
struct PartialValue {
  bool is_const = false;
  bool const_value = false;
  int slot = -1;

  static PartialValue Const(bool v) { return {true, v, -1}; }
  static PartialValue Slot(int s) { return {false, false, s}; }
};

}  // namespace

CompiledLineage CompiledLineage::Compile(const ProvExprPtr& lineage,
                                         const std::vector<int>& endogenous) {
  XAI_CHECK_MSG(endogenous.size() <= 64,
                "coalition masks are 64 bits wide; lineage over more than 64 "
                "endogenous tuples is not representable");
  CompiledLineage out;
  // First occurrence wins, matching the linear scan in the naive path.
  std::unordered_map<int, int> bit_of;
  for (size_t i = 0; i < endogenous.size(); ++i)
    bit_of.emplace(endogenous[i], static_cast<int>(i));

  // Memoized postorder walk over the shared DAG (annotations reuse
  // subtrees heavily — PlusAll trees share base variables).
  std::unordered_map<const ProvExpr*, PartialValue> memo;
  std::unordered_map<int, int> var_slot;  // bit -> emitted kVar slot.

  std::function<PartialValue(const ProvExpr&)> walk =
      [&](const ProvExpr& e) -> PartialValue {
    auto found = memo.find(&e);
    if (found != memo.end()) return found->second;
    PartialValue pv;
    switch (e.kind()) {
      case ProvExpr::Kind::kZero:
        pv = PartialValue::Const(false);
        break;
      case ProvExpr::Kind::kOne:
        pv = PartialValue::Const(true);
        break;
      case ProvExpr::Kind::kBase: {
        auto it = bit_of.find(e.base_id());
        if (it == bit_of.end()) {
          pv = PartialValue::Const(true);  // Exogenous: always present.
        } else {
          auto [vs, inserted] =
              var_slot.try_emplace(it->second, static_cast<int>(
                                                   out.nodes_.size()));
          if (inserted) {
            Node n;
            n.op = Node::Op::kVar;
            n.bit = it->second;
            out.nodes_.push_back(std::move(n));
          }
          pv = PartialValue::Slot(vs->second);
        }
        break;
      }
      case ProvExpr::Kind::kPlus:
      case ProvExpr::Kind::kTimes: {
        const bool is_plus = e.kind() == ProvExpr::Kind::kPlus;
        const Node::Op op = is_plus ? Node::Op::kOr : Node::Op::kAnd;
        // The absorbing constant (true for OR, false for AND) decides the
        // whole node; the neutral constant drops out. Children with the
        // same operator splice their args in (associativity): nested
        // binary Plus/Times chains flatten into one wide node, which then
        // dedups by idempotence. Spliced children may go dead; the DCE
        // pass below drops them.
        bool absorbed = false;
        std::vector<int> args;
        for (const ProvExpr* child : e.children()) {
          const PartialValue c = walk(*child);
          if (c.is_const) {
            if (c.const_value == is_plus) absorbed = true;
          } else if (out.nodes_[c.slot].op == op) {
            const std::vector<int>& inner = out.nodes_[c.slot].args;
            args.insert(args.end(), inner.begin(), inner.end());
          } else {
            args.push_back(c.slot);
          }
        }
        std::sort(args.begin(), args.end());
        args.erase(std::unique(args.begin(), args.end()), args.end());
        if (absorbed) {
          pv = PartialValue::Const(is_plus);
        } else if (args.empty()) {
          pv = PartialValue::Const(!is_plus);
        } else if (args.size() == 1) {
          pv = PartialValue::Slot(args[0]);
        } else {
          Node n;
          n.op = op;
          n.args = std::move(args);
          out.nodes_.push_back(std::move(n));
          pv = PartialValue::Slot(static_cast<int>(out.nodes_.size()) - 1);
        }
        break;
      }
    }
    memo.emplace(&e, pv);
    return pv;
  };

  const PartialValue root = walk(*lineage);
  out.root_is_const_ = root.is_const;
  out.const_result_ = root.const_value;
  out.root_slot_ = root.slot;
  if (root.is_const) {
    out.nodes_.clear();  // Nothing reachable matters.
    return out;
  }

  // Dead-code elimination: splicing and memoized sharing can leave nodes
  // no longer reachable from the root; Eval runs every program op, so
  // compact to the live subset (order-preserving, args stay postorder).
  std::vector<uint8_t> live(out.nodes_.size(), 0);
  std::vector<int> stack = {root.slot};
  while (!stack.empty()) {
    const int s = stack.back();
    stack.pop_back();
    if (live[s]) continue;
    live[s] = 1;
    for (int a : out.nodes_[s].args) stack.push_back(a);
  }
  std::vector<int> remap(out.nodes_.size(), -1);
  std::vector<Node> compact;
  compact.reserve(out.nodes_.size());
  for (size_t i = 0; i < out.nodes_.size(); ++i) {
    if (!live[i]) continue;
    remap[i] = static_cast<int>(compact.size());
    compact.push_back(std::move(out.nodes_[i]));
    for (int& a : compact.back().args) a = remap[a];
  }
  out.nodes_ = std::move(compact);
  out.root_slot_ = remap[root.slot];
  return out;
}

bool CompiledLineage::Eval(uint64_t mask, Scratch* scratch) const {
  if (root_is_const_) return const_result_;
  std::vector<uint8_t>& vals = scratch->vals;
  if (vals.size() < nodes_.size()) vals.resize(nodes_.size());
  const int n = static_cast<int>(nodes_.size());
  for (int i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    switch (node.op) {
      case Node::Op::kVar:
        vals[i] = static_cast<uint8_t>((mask >> node.bit) & 1);
        break;
      case Node::Op::kAnd: {
        uint8_t v = 1;
        for (int a : node.args) {
          if (!vals[a]) {
            v = 0;
            break;
          }
        }
        vals[i] = v;
        break;
      }
      case Node::Op::kOr: {
        uint8_t v = 0;
        for (int a : node.args) {
          if (vals[a]) {
            v = 1;
            break;
          }
        }
        vals[i] = v;
        break;
      }
    }
  }
  return vals[root_slot_] != 0;
}

uint64_t CompiledLineage::Eval64(uint64_t base_mask, Scratch* scratch) const {
  if (root_is_const_) return const_result_ ? ~0ULL : 0ULL;
  // Lane j of every word is coalition (base_mask & ~63) + j. Over a
  // 64-aligned block, mask bit b < 6 cycles with period 2^(b+1) — a fixed
  // lane constant — and bit b >= 6 is the same for all 64 lanes.
  std::vector<uint64_t>& vals = scratch->lanes;
  if (vals.size() < nodes_.size()) vals.resize(nodes_.size());
  const int n = static_cast<int>(nodes_.size());
  for (int i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    switch (node.op) {
      case Node::Op::kVar:
        vals[i] = node.bit < 6 ? kLaneBit[node.bit]
                  : ((base_mask >> node.bit) & 1) ? ~0ULL
                                                  : 0ULL;
        break;
      case Node::Op::kAnd: {
        uint64_t v = ~0ULL;
        for (int a : node.args) v &= vals[a];
        vals[i] = v;
        break;
      }
      case Node::Op::kOr: {
        uint64_t v = 0;
        for (int a : node.args) v |= vals[a];
        vals[i] = v;
        break;
      }
    }
  }
  return vals[root_slot_];
}

bool CompiledLineage::IsConst(bool* value) const {
  if (!root_is_const_) return false;
  *value = const_result_;
  return true;
}

bool CompiledLineage::IsConjunction(uint64_t* bits) const {
  if (root_is_const_) return false;
  // Flattening splices nested ANDs, so a conjunction is a variable or one
  // AND node over variables.
  const Node& root = nodes_[root_slot_];
  if (root.op == Node::Op::kVar) {
    *bits = uint64_t{1} << root.bit;
    return true;
  }
  if (root.op != Node::Op::kAnd) return false;
  uint64_t vars = 0;
  for (int a : root.args) {
    if (nodes_[a].op != Node::Op::kVar) return false;
    vars |= uint64_t{1} << nodes_[a].bit;
  }
  *bits = vars;
  return true;
}

uint64_t CompiledLineage::var_bits() const {
  uint64_t bits = 0;
  for (const Node& node : nodes_)
    if (node.op == Node::Op::kVar) bits |= uint64_t{1} << node.bit;
  return bits;
}

std::vector<uint64_t> TruthTableWords(const CompiledLineage& lineage, int n) {
  XAI_CHECK(n >= 0 && n <= 24);
  std::vector<uint64_t> words(n < 6 ? 1 : size_t{1} << (n - 6));
  CompiledLineage::Scratch scratch;
  for (size_t k = 0; k < words.size(); ++k)
    words[k] = lineage.Eval64(uint64_t{k} << 6, &scratch);
  // Below 64 coalitions, the lanes past 2^n repeat the table; clear them.
  if (n < 6) words[0] &= (uint64_t{1} << (1 << n)) - 1;
  return words;
}

int SharedScanAggregate::BitOf(int id, size_t* cursor) const {
  const size_t n = players_.size();
  for (size_t step = 0, p = *cursor; step < n; ++step, ++p) {
    if (p == n) p = 0;
    if (players_[p] == id) {
      *cursor = p + 1;
      return first_bit_[p];
    }
  }
  return -1;
}

bool SharedScanAggregate::ProductNeed(const ProvExpr& root,
                                      std::vector<const ProvExpr*>* stack,
                                      uint64_t* need) const {
  // A product of k base tuples has 2k - 1 nodes. The walk does not
  // memoize shared subtrees the way Compile does, so a larger annotation
  // goes to Compile instead.
  constexpr int kMaxNodes = 64;
  stack->assign(1, &root);
  uint64_t bits = 0;
  for (int visited = 0; !stack->empty(); ++visited) {
    if (visited == kMaxNodes) return false;
    const ProvExpr& e = *stack->back();
    stack->pop_back();
    switch (e.kind()) {
      case ProvExpr::Kind::kZero:
        *need = kNever;  // Zero absorbs the whole product.
        return true;
      case ProvExpr::Kind::kOne:
        break;
      case ProvExpr::Kind::kBase: {
        size_t cursor = 0;
        const int bit = BitOf(e.base_id(), &cursor);
        if (bit >= 0) bits |= uint64_t{1} << bit;
        break;
      }
      case ProvExpr::Kind::kTimes:
        stack->insert(stack->end(), e.children().begin(), e.children().end());
        break;
      case ProvExpr::Kind::kPlus:
        return false;
    }
  }
  *need = bits;
  return true;
}

Result<SharedScanAggregate> SharedScanAggregate::Build(
    const rel::Relation& rows, rel::AggFn fn, int agg_column,
    const std::vector<int>& endogenous) {
  if (fn != rel::AggFn::kCount &&
      (agg_column < 0 || agg_column >= rows.num_columns()))
    return Status::OutOfRange("aggregate column out of range");
  if (endogenous.size() > 63)
    return Status::Unimplemented("more than 63 endogenous tuples");
  SharedScanAggregate s;
  s.fn_ = fn;
  s.players_ = endogenous;
  s.first_bit_.resize(endogenous.size());
  for (size_t p = 0; p < endogenous.size(); ++p) {
    // First occurrence wins, as in CompiledLineage::Compile.
    size_t first = 0;
    while (endogenous[first] != endogenous[p]) ++first;
    s.first_bit_[p] = static_cast<int>(first);
  }

  const int n = rows.num_tuples();
  s.values_.reserve(n);
  s.need_.reserve(n);
  std::vector<const ProvExpr*> stack;
  for (int i = 0; i < n; ++i) {
    s.values_.push_back(fn == rel::AggFn::kCount
                            ? 1.0
                            : rows.tuple(i)[agg_column].AsDouble());
    // A Plus-free annotation is a constant or a conjunction, which is all
    // Compile would find; only a row with a Plus is compiled.
    uint64_t need = 0;
    if (s.ProductNeed(*rows.annotation(i), &stack, &need)) {
      s.need_.push_back(need);
      continue;
    }
    CompiledLineage compiled =
        CompiledLineage::Compile(rows.annotation(i), endogenous);
    bool cval = false;
    uint64_t bits = 0;
    if (compiled.IsConst(&cval)) {
      s.need_.push_back(cval ? 0 : kNever);
    } else if (compiled.IsConjunction(&bits)) {
      s.need_.push_back(bits);
    } else {
      s.need_.push_back(kNever);  // Eval sets it per coalition.
      s.programs_.push_back({i, std::move(compiled)});
    }
  }
  for (uint64_t need : s.need_)
    if (need != 0 && !(need & kNever)) s.distinct_needs_.push_back(need);
  std::sort(s.distinct_needs_.begin(), s.distinct_needs_.end());
  s.distinct_needs_.erase(
      std::unique(s.distinct_needs_.begin(), s.distinct_needs_.end()),
      s.distinct_needs_.end());
  for (const ProgramRow& p : s.programs_)
    s.program_vars_ |= p.lineage.var_bits();
  if (fn == rel::AggFn::kMin || fn == rel::AggFn::kMax) s.gather_.resize(n);
  XAI_COUNTER_ADD("dbx/shared_scan_rows", n);
  XAI_COUNTER_ADD("dbx/shared_scan_program_rows",
                  static_cast<int64_t>(s.programs_.size()));
  return s;
}

uint64_t SharedScanAggregate::KeyOf(uint64_t mask) const {
  // The need words the coalition covers decide which plain rows it
  // admits, and their OR is the largest mask covering exactly those; the
  // program rows read only the program variables. A key keeps both, and
  // the key itself is a coalition that admits the same rows.
  uint64_t key = mask & program_vars_;
  for (uint64_t need : distinct_needs_)
    if ((need & ~mask) == 0) key |= need;
  return key;
}

void SharedScanAggregate::Values(std::span<const uint64_t> masks,
                                 std::span<double> out) {
  XAI_CHECK_EQ(masks.size(), out.size());
  keys_.Clear();
  key_of_mask_.resize(masks.size());
  for (size_t j = 0; j < masks.size(); ++j)
    key_of_mask_[j] = keys_.Intern(KeyOf(masks[j]));
  const std::vector<uint64_t>& keys = keys_.masks();
  key_values_.resize(keys.size());
  // Keys that agree on the program variables agree on every program row,
  // so a run of them shares one setting of the program rows' need words.
  for (size_t begin = 0; begin < keys.size();) {
    const uint64_t vars = keys[begin] & program_vars_;
    size_t end = begin + 1;
    while (end < keys.size() && (keys[end] & program_vars_) == vars) ++end;
    for (const ProgramRow& p : programs_)
      need_[p.row] = p.lineage.Eval(vars, &scratch_) ? 0 : kNever;
    EvalKeys(begin, end);
    begin = end;
  }
  for (size_t j = 0; j < masks.size(); ++j)
    out[j] = key_values_[key_of_mask_[j]];
  XAI_COUNTER_ADD("dbx/shared_scan_collapsed",
                  static_cast<int64_t>(masks.size() - keys.size()));
}

void SharedScanAggregate::EvalKeys(size_t begin, size_t end) {
  const std::vector<uint64_t>& keys = keys_.masks();
  const size_t n = values_.size();
  // A row is present when it needs no bit the coalition lacks. No key has
  // bit 63, so every key lacks it.
  if (fn_ == rel::AggFn::kMin || fn_ == rel::AggFn::kMax) {
    for (size_t id = begin; id < end; ++id) {
      const int64_t len = static_cast<int64_t>(simd::Compress(
          values_.data(), need_.data(), ~keys[id], n, gather_.data()));
      key_values_[id] = fn_ == rel::AggFn::kMin
                            ? rel::CanonicalMin(gather_.data(), len)
                            : rel::CanonicalMax(gather_.data(), len);
    }
    return;
  }
  constexpr int kWays = simd::kCompressSumsWays;
  for (size_t first = begin; first < end; first += kWays) {
    const int k = static_cast<int>(std::min<size_t>(kWays, end - first));
    uint64_t lacking[kWays];
    for (int c = 0; c < k; ++c) lacking[c] = ~keys[first + c];
    double sums[kWays];
    size_t counts[kWays];
    simd::CompressSums(values_.data(), need_.data(), lacking, k, n,
                       rel::kBatchRows, sums, counts);
    for (int c = 0; c < k; ++c) {
      const double len = static_cast<double>(counts[c]);
      double& value = key_values_[first + c];
      switch (fn_) {
        case rel::AggFn::kCount:
          value = len;
          break;
        case rel::AggFn::kAvg:
          value = counts[c] ? sums[c] / len : 0.0;
          break;
        default:
          value = sums[c];
          break;
      }
    }
  }
}

double SharedScanAggregate::Eval(uint64_t mask) {
  double value = 0.0;
  Values({&mask, 1}, {&value, 1});
  return value;
}

uint64_t SharedScanAggregate::MaskOf(std::span<const int> ids) const {
  // Present lists usually come in player order, so the cursor maps them
  // in one pass over the players.
  uint64_t mask = 0;
  size_t cursor = 0;
  for (int id : ids) {
    const int bit = BitOf(id, &cursor);
    if (bit >= 0) mask |= uint64_t{1} << bit;
  }
  return mask;
}

SharedScanQuery SharedScanAggregate::AsQueryValue() {
  return SharedScanQuery(this);
}

}  // namespace xai
